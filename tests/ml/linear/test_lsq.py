"""Tests for the OLS core and partial-F inference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.linear.lsq import fit_ols, partial_f_pvalue, solve_ols


def _make_linear(n=60, p=3, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    beta = np.arange(1, p + 1, dtype=float)
    y = 2.0 + X @ beta + rng.normal(0, sigma, n)
    return X, y, beta


class TestFitOls:
    def test_recovers_coefficients(self):
        X, y, beta = _make_linear()
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coef, beta, atol=0.1)
        assert fit.intercept == pytest.approx(2.0, abs=0.1)

    def test_perfect_fit_r2_one(self):
        X, y, _ = _make_linear(sigma=0.0)
        fit = fit_ols(X, y)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.sse == pytest.approx(0.0, abs=1e-15)

    def test_null_model_zero_predictors(self):
        y = np.array([1.0, 2.0, 3.0])
        fit = fit_ols(np.empty((3, 0)), y)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(0.0)

    def test_significant_predictor_small_pvalue(self):
        X, y, _ = _make_linear(n=100, p=2, sigma=0.05)
        fit = fit_ols(X, y)
        assert (fit.p_values < 1e-6).all()

    def test_noise_predictor_large_pvalue(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 2))
        y = 5.0 + 3.0 * X[:, 0] + rng.normal(0, 0.5, 80)  # x1 is junk
        fit = fit_ols(X, y)
        assert fit.p_values[0] < 1e-6
        assert fit.p_values[1] > 0.05

    def test_collinear_columns_handled(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        X = np.column_stack([x, 2.0 * x])  # rank deficient
        y = 1.0 + x + rng.normal(0, 0.1, 50)
        fit = fit_ols(X, y)  # must not raise
        pred = fit.predict(X)
        assert np.mean((pred - y) ** 2) < 0.1

    def test_predict_shape_check(self):
        X, y, _ = _make_linear(p=3)
        fit = fit_ols(X, y)
        with pytest.raises(ValueError):
            fit.predict(np.zeros((5, 2)))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            fit_ols(np.zeros((3, 1)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_ols(np.zeros((0, 1)), np.zeros(0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(5, 40), st.integers(1, 4))
    def test_residuals_orthogonal_to_fit(self, n, p):
        rng = np.random.default_rng(n * 10 + p)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        fit = fit_ols(X, y)
        resid = y - fit.predict(X)
        # Normal equations: residuals orthogonal to each predictor column.
        assert np.abs(X.T @ resid).max() < 1e-6 * max(1.0, np.abs(y).max()) * n

    def test_r2_between_0_and_1(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        fit = fit_ols(X, y)
        assert 0.0 <= fit.r_squared <= 1.0


class TestPartialF:
    def test_useful_addition_significant(self):
        X, y, _ = _make_linear(n=80, p=2, sigma=0.1)
        reduced = fit_ols(X[:, :1], y)
        full = fit_ols(X, y)
        assert partial_f_pvalue(reduced, full) < 1e-6

    def test_useless_addition_not_significant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=100)
        junk = rng.normal(size=100)
        y = 1.0 + 2.0 * x + rng.normal(0, 0.3, 100)
        reduced = fit_ols(x[:, None], y)
        full = fit_ols(np.column_stack([x, junk]), y)
        assert partial_f_pvalue(reduced, full) > 0.01

    def test_no_improvement_returns_one(self):
        X, y, _ = _make_linear()
        fit = fit_ols(X, y)
        assert partial_f_pvalue(fit, fit) == 1.0

    def test_perfect_full_fit(self):
        X, y, _ = _make_linear(sigma=0.0)
        reduced = fit_ols(X[:, :1], y)
        full = fit_ols(X, y)
        assert partial_f_pvalue(reduced, full) == 0.0

    def test_rejects_bad_df(self):
        X, y, _ = _make_linear()
        fit = fit_ols(X, y)
        with pytest.raises(ValueError):
            partial_f_pvalue(fit, fit, df_added=0)


class TestPartialFSurvival:
    """``partial_f_pvalue`` calls ``scipy.special.fdtrc`` directly; it must
    equal the ``scipy.stats.f.sf`` it replaced bit for bit."""

    @pytest.mark.parametrize("df_added", [1, 2, 5])
    @pytest.mark.parametrize("df_resid", [1, 3, 10, 44, 200])
    def test_fdtrc_equals_f_sf_on_grid(self, df_added, df_resid):
        from scipy import special, stats

        f_stats = np.concatenate([np.geomspace(1e-8, 1e4, 60), [0.5, 1.0, 2.0, 3.84]])
        for f_stat in f_stats:
            direct = float(special.fdtrc(df_added, df_resid, f_stat))
            assert direct == float(stats.f.sf(f_stat, df_added, df_resid))

    def test_pvalue_is_f_survival_of_partial_f(self):
        from scipy import stats

        rng = np.random.default_rng(11)
        x = rng.normal(size=40)
        junk = rng.normal(size=40)
        y = 1.0 + 2.0 * x + 0.2 * junk + rng.normal(0, 0.5, 40)
        reduced = fit_ols(x[:, None], y)
        full = fit_ols(np.column_stack([x, junk]), y)
        f_stat = (reduced.sse - full.sse) / (full.sse / full.df_resid)
        assert partial_f_pvalue(reduced, full) == float(stats.f.sf(f_stat, 1, full.df_resid))


class TestTSurvival:
    """``OlsFit.p_values`` call ``scipy.special.stdtr`` directly; it must
    equal the ``scipy.stats.t.sf`` it replaced bit for bit."""

    @pytest.mark.parametrize("df_resid", [1, 2, 3, 10, 44, 200])
    def test_stdtr_equals_t_sf_on_grid(self, df_resid):
        from scipy import special, stats

        t_abs = np.concatenate([np.geomspace(1e-8, 1e4, 80), [0.0, 0.5, 1.0, 1.96, 2.5]])
        direct = 2.0 * special.stdtr(df_resid, -t_abs)
        np.testing.assert_array_equal(direct, 2.0 * stats.t.sf(t_abs, df_resid))

    def test_p_values_are_two_sided_t_survival(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = 1.0 + X @ np.array([2.0, 0.1, -0.5]) + rng.normal(0, 0.5, 30)
        fit = fit_ols(X, y)
        expected = 2.0 * stats.t.sf(np.abs(fit.t_values), fit.df_resid)
        np.testing.assert_array_equal(fit.p_values, expected)

    def test_solve_then_fit_equals_fit_ols(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 4))
        y = X @ np.array([1.0, 0.0, 3.0, -1.0]) + rng.normal(0, 0.3, 25)
        solve = solve_ols(X, y)
        full = fit_ols(X, y)
        assert (solve.sse, solve.df_resid) == (full.sse, full.df_resid)
        again = solve.fit()
        for name in ("coef", "se", "t_values", "p_values"):
            np.testing.assert_array_equal(getattr(again, name), getattr(full, name))
        for name in ("intercept", "sse", "sst", "r_squared", "sigma2", "df_resid", "n_obs",
                     "condition_number", "solver"):
            assert getattr(again, name) == getattr(full, name)
