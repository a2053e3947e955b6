"""Tests for Clementine-style preparation (scaling, encoding, omission)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.ml.preprocess import Encoder, MinMaxScaler


def _ds(n=8, with_symbolic=True):
    cols = [
        Column("num", ColumnRole.NUMERIC, np.linspace(10, 20, n)),
        Column("flag", ColumnRole.FLAG, np.arange(n) % 2 == 0),
        Column("const", ColumnRole.NUMERIC, np.full(n, 3.0)),
        Column("numcat", ColumnRole.CATEGORICAL, np.array(["32", "64"] * (n // 2))),
    ]
    if with_symbolic:
        cols.append(Column("bp", ColumnRole.CATEGORICAL,
                           np.array(["bimodal", "2level"] * (n // 2))))
    return Dataset(cols, np.arange(n, dtype=float) + 1)


class TestMinMaxScaler:
    def test_unit_interval(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        out = MinMaxScaler().fit_transform(X)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_constant_feature_maps_to_zero(self):
        X = np.array([[5.0], [5.0]])
        out = MinMaxScaler().fit_transform(X)
        np.testing.assert_allclose(out, 0.0)

    def test_extrapolates_beyond_training_range(self):
        # Chronological prediction needs values > 1 for next-year clocks.
        sc = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert sc.transform(np.array([[20.0]]))[0, 0] == pytest.approx(2.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((1, 1)))

    def test_shape_checks(self):
        sc = MinMaxScaler().fit(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            sc.transform(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.zeros(3))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30, unique=True))
    def test_training_data_always_in_unit_interval(self, vals):
        X = np.asarray(vals)[:, None]
        out = MinMaxScaler().fit_transform(X)
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12


class TestEncoderLinear:
    def test_drops_symbolic_categorical(self):
        enc = Encoder("linear").fit(_ds())
        assert "bp" in enc.report.dropped_symbolic
        assert all(not f.startswith("bp") for f in enc.feature_names)

    def test_coerces_numeric_categorical(self):
        enc = Encoder("linear").fit(_ds())
        assert "numcat" in enc.feature_names

    def test_drops_constant(self):
        enc = Encoder("linear").fit(_ds())
        assert "const" in enc.report.dropped_constant

    def test_flag_becomes_01(self):
        enc = Encoder("linear").fit(_ds())
        X = enc.transform(_ds())
        j = enc.feature_names.index("flag")
        assert set(np.unique(X[:, j])) == {0.0, 1.0}

    def test_raises_when_nothing_usable(self):
        ds = Dataset(
            [Column("c", ColumnRole.NUMERIC, np.full(4, 1.0))],
            np.arange(4, dtype=float) + 1,
        )
        with pytest.raises(ValueError, match="no usable"):
            Encoder("linear").fit(ds)


class TestEncoderNn:
    def test_one_hot_symbolic(self):
        enc = Encoder("nn").fit(_ds())
        assert "bp=bimodal" in enc.feature_names
        assert "bp=2level" in enc.feature_names

    def test_one_hot_rows_sum_to_one(self):
        enc = Encoder("nn").fit(_ds())
        X = enc.transform(_ds())
        cols = [i for i, f in enumerate(enc.feature_names) if f.startswith("bp=")]
        np.testing.assert_allclose(X[:, cols].sum(axis=1), 1.0)

    def test_unseen_level_encodes_all_zero(self):
        train = _ds()
        enc = Encoder("nn").fit(train)
        test = Dataset(
            [Column(c.name, c.role,
                    np.array(["perfect"] * 8) if c.name == "bp" else c.values)
             for c in train.columns],
            train.target,
        )
        X = enc.transform(test)
        cols = [i for i, f in enumerate(enc.feature_names) if f.startswith("bp=")]
        np.testing.assert_allclose(X[:, cols], 0.0)

    def test_scaled_output_in_unit_interval_on_train(self):
        ds = _ds()
        X = Encoder("nn").fit_transform(ds)
        assert X.min() >= -1e-12 and X.max() <= 1.0 + 1e-12


class TestIdentifierElimination:
    def test_high_cardinality_categorical_dropped(self):
        n = 40
        ds = Dataset(
            [
                Column("num", ColumnRole.NUMERIC, np.linspace(0, 1, n)),
                Column("sysname", ColumnRole.CATEGORICAL,
                       np.array([f"sys-{i}" for i in range(n)])),
            ],
            np.arange(n, dtype=float) + 1,
        )
        enc = Encoder("nn").fit(ds)
        assert "sysname" in enc.report.dropped_identifier
        assert all(not f.startswith("sysname") for f in enc.feature_names)

    def test_low_cardinality_kept(self):
        enc = Encoder("nn").fit(_ds())
        assert "bp" not in enc.report.dropped_identifier


class TestEncoderGeneral:
    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Encoder("nn").transform(_ds())

    def test_invalid_target_model(self):
        with pytest.raises(ValueError):
            Encoder("svm")  # type: ignore[arg-type]

    def test_feature_to_column(self):
        enc = Encoder("nn").fit(_ds())
        assert enc.feature_to_column("bp=bimodal") == "bp"
        assert enc.feature_to_column("num") == "num"

    def test_report_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            _ = Encoder("nn").report
