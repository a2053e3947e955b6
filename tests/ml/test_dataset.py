"""Tests for the typed Dataset/Column containers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml.dataset import Column, ColumnRole, Dataset


def _toy(n=10):
    return Dataset(
        [
            Column("num", ColumnRole.NUMERIC, np.arange(n, dtype=float)),
            Column("flag", ColumnRole.FLAG, np.arange(n) % 2 == 0),
            Column("cat", ColumnRole.CATEGORICAL, np.array(["a", "b"] * (n // 2))),
        ],
        np.arange(n, dtype=float) + 1.0,
        target_name="perf",
    )


class TestColumn:
    def test_numeric_coerced_to_float(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1, 2]))
        assert c.values.dtype == np.float64

    def test_flag_coerced_to_bool(self):
        c = Column("x", ColumnRole.FLAG, np.array([0, 1]))
        assert c.values.dtype == bool

    def test_categorical_stringified(self):
        c = Column("x", ColumnRole.CATEGORICAL, np.array([1, 2]))
        assert list(c.values) == ["1", "2"]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Column("x", ColumnRole.NUMERIC, np.zeros((2, 2)))

    def test_rejects_nan_numeric(self):
        with pytest.raises(ValueError):
            Column("x", ColumnRole.NUMERIC, np.array([1.0, np.nan]))

    def test_nonfinite_error_names_field_count_and_record(self):
        with pytest.raises(ValueError, match=r"'cache'.*2 non-finite.*record 1"):
            Column("cache", ColumnRole.NUMERIC,
                   np.array([1.0, np.nan, np.inf, 4.0]))

    def test_rejects_nan_flag(self):
        # astype(bool) would silently turn NaN into True — must fail fast.
        with pytest.raises(ValueError, match="flag column 'f'"):
            Column("f", ColumnRole.FLAG, np.array([1.0, np.nan]))

    def test_integer_and_bool_flags_still_fine(self):
        assert Column("f", ColumnRole.FLAG, np.array([0, 1])).values.dtype == bool
        assert Column("f", ColumnRole.FLAG, np.array([True, False])).values[0]

    def test_is_constant(self):
        assert Column("x", ColumnRole.NUMERIC, np.array([2.0, 2.0])).is_constant
        assert not Column("x", ColumnRole.NUMERIC, np.array([1.0, 2.0])).is_constant

    def test_take(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(c.take(np.array([2, 0])).values, [3.0, 1.0])


class TestDataset:
    def test_basic_properties(self):
        ds = _toy()
        assert ds.n_records == 10
        assert ds.column_names == ["num", "flag", "cat"]
        assert ds.target_name == "perf"
        assert len(ds) == 10

    def test_rejects_duplicate_names(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1.0]))
        with pytest.raises(ValueError, match="duplicate"):
            Dataset([c, c], np.array([1.0]))

    def test_rejects_length_mismatch(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset([c], np.array([1.0]))

    def test_rejects_nonfinite_target(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset([c], np.array([np.inf]))

    def test_nonfinite_target_error_names_target(self):
        c = Column("x", ColumnRole.NUMERIC, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=r"target 'cycles'.*record 1"):
            Dataset([c], np.array([1.0, np.nan]), target_name="cycles")

    def test_column_lookup_error_lists_names(self):
        with pytest.raises(KeyError, match="num"):
            _toy().column("missing")

    def test_take_preserves_alignment(self):
        ds = _toy()
        sub = ds.take([3, 5])
        assert sub.column("num").values.tolist() == [3.0, 5.0]
        assert sub.target.tolist() == [4.0, 6.0]

    def test_take_out_of_range(self):
        with pytest.raises(IndexError):
            _toy().take([100])

    def test_random_split_partitions(self, rng):
        ds = _toy()
        a, b = (ds.take(idx) for idx in ds.random_split_indices(0.5, rng))
        assert a.n_records + b.n_records == ds.n_records
        merged = sorted(a.target.tolist() + b.target.tolist())
        assert merged == sorted(ds.target.tolist())

    def test_random_split_never_empty(self, rng):
        ds = _toy(4)
        a, b = (ds.take(idx) for idx in ds.random_split_indices(0.01, rng))
        assert a.n_records >= 1 and b.n_records >= 1

    def test_random_split_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            _toy().random_split_indices(1.0, rng)

    def test_sample_without_replacement(self, rng):
        ds = _toy()
        sub, idx = ds.sample(5, rng)
        assert sub.n_records == 5
        assert len(set(idx.tolist())) == 5

    def test_sample_bounds(self, rng):
        with pytest.raises(ValueError):
            _toy().sample(0, rng)
        with pytest.raises(ValueError):
            _toy().sample(11, rng)

    @given(st.integers(2, 40), st.floats(0.1, 0.9))
    def test_split_fraction_roughly_honored(self, n, frac):
        ds = Dataset(
            [Column("x", ColumnRole.NUMERIC, np.arange(n, dtype=float))],
            np.ones(n),
        )
        sel, _ = ds.random_split_indices(frac, np.random.default_rng(0))
        assert abs(ds.take(sel).n_records - frac * n) <= 1
