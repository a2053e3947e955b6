"""Tests for degree-2 feature expansion and interaction-augmented LR."""

import numpy as np

from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.ml.linear.features import degree2_feature_names, expand_degree2
from repro.ml.linear.model import LinearRegressionModel


class TestExpandDegree2:
    def test_column_count(self):
        X = np.ones((5, 3))
        out = expand_degree2(X)
        assert out.shape == (5, 3 + 3 + 3)  # original + squares + C(3,2)

    def test_values_correct(self):
        X = np.array([[2.0, 3.0]])
        out = expand_degree2(X)
        np.testing.assert_allclose(out[0], [2, 3, 4, 9, 6])

    def test_single_feature_no_interactions(self):
        out = expand_degree2(np.array([[4.0]]))
        np.testing.assert_allclose(out[0], [4, 16])

    def test_names_match_columns(self):
        X = np.ones((2, 3))
        names = degree2_feature_names(["a", "b", "c"])
        assert len(names) == expand_degree2(X).shape[1]
        assert names[:3] == ["a", "b", "c"]
        assert "a^2" in names and "a*b" in names and "b*c" in names


class TestInteractionModel:
    def _multiplicative_ds(self, n=150, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.uniform(1, 3, n)
        b = rng.uniform(1, 3, n)
        y = 5.0 + 2.0 * a * b + rng.normal(0, 0.05, n)  # pure interaction
        return Dataset(
            [Column("a", ColumnRole.NUMERIC, a), Column("b", ColumnRole.NUMERIC, b)],
            y,
        )

    def test_name_suffix(self):
        m = LinearRegressionModel("forward", interactions=True)
        assert m.name == "LR-F+int"

    def test_captures_multiplicative_structure(self):
        ds = self._multiplicative_ds()
        train, test = ds.take(range(100)), ds.take(range(100, 150))
        plain = LinearRegressionModel("forward").fit(train)
        inter = LinearRegressionModel("forward", interactions=True).fit(train)

        def err(m):
            return float(np.mean(np.abs(m.predict(test) - test.target) / test.target))

        assert err(inter) < err(plain) / 3

    def test_selects_the_product_term(self):
        ds = self._multiplicative_ds()
        m = LinearRegressionModel("forward", interactions=True).fit(ds)
        assert "a*b" in m.selected_features

    def test_importances_credit_base_columns(self):
        ds = self._multiplicative_ds()
        m = LinearRegressionModel("forward", interactions=True).fit(ds)
        imp = m.importances()
        assert set(imp) <= {"a", "b"}
        assert imp["a"] > 0
