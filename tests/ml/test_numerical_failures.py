"""Tests for numerical-failure detection: OLS fallback chain, condition
numbers, NN divergence detection, and bounded seeded restarts."""

import numpy as np
import pytest

import repro.ml.nn.training as training
from repro.errors import NumericalError
from repro.ml.linear.lsq import COND_ILL_THRESHOLD, OlsFit, fit_ols
from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, train


class TestOlsConditionNumber:
    def test_well_conditioned_fit_reports_condition(self, rng):
        X = rng.normal(size=(60, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(scale=0.1, size=60)
        fit = fit_ols(X, y)
        assert fit.solver == "lstsq"
        assert np.isfinite(fit.condition_number)
        assert not fit.ill_conditioned

    def test_collinear_design_flagged_ill_conditioned(self, rng):
        x = rng.normal(size=50)
        X = np.column_stack([x, 2.0 * x, rng.normal(size=50)])
        y = x + rng.normal(scale=0.1, size=50)
        fit = fit_ols(X, y)
        # The minimum-norm solution is still finite (primary path), but the
        # singularity must be visible in the diagnostics.
        assert fit.solver == "lstsq"
        assert np.isfinite(fit.coef).all()
        assert fit.ill_conditioned
        assert fit.condition_number > COND_ILL_THRESHOLD or np.isinf(
            fit.condition_number)

    def test_ill_conditioned_property_semantics(self):
        base = dict(intercept=0.0, coef=np.zeros(1), sse=0.0, sst=0.0,
                    r_squared=0.0, sigma2=0.0, se=np.zeros(1),
                    t_values=np.zeros(1), p_values=np.ones(1),
                    df_resid=1, n_obs=2)
        assert not OlsFit(**base, condition_number=float("nan")).ill_conditioned
        assert OlsFit(**base, condition_number=float("inf")).ill_conditioned
        assert OlsFit(**base, condition_number=1e13).ill_conditioned
        assert not OlsFit(**base, condition_number=1e3).ill_conditioned


class TestOlsFallbacks:
    def test_non_finite_input_raises_typed(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        X[4, 1] = np.nan
        with pytest.raises(NumericalError) as ei:
            fit_ols(X, y)
        assert ei.value.cause == "non-finite-input"
        assert ei.value.exit_code == 8
        assert ei.value.context["n_predictors"] == 3

    def test_non_finite_response_raises_typed(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        y[0] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            fit_ols(X, y)

    def test_is_arithmetic_error(self, rng):
        # Legacy numeric handlers catch ArithmeticError.
        X = np.full((5, 2), np.nan)
        with pytest.raises(ArithmeticError):
            fit_ols(X, np.ones(5))

    def test_ridge_fallback_when_lstsq_fails(self, rng, monkeypatch):
        X = rng.normal(size=(30, 3))
        y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(scale=0.05, size=30)

        def broken_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", broken_lstsq)
        fit = fit_ols(X, y)
        assert fit.solver == "ridge"
        assert np.isfinite(fit.coef).all()
        # Ridge rescue must land near the true coefficients.
        assert np.allclose(fit.coef, [1.0, 2.0, 3.0], atol=0.2)

    def test_pinv_fallback_when_ridge_also_fails(self, rng, monkeypatch):
        X = rng.normal(size=(30, 3))
        y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(scale=0.05, size=30)

        def broken_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        def broken_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "lstsq", broken_lstsq)
        monkeypatch.setattr(np.linalg, "solve", broken_solve)
        fit = fit_ols(X, y)
        assert fit.solver == "pinv"
        assert np.allclose(fit.coef, [1.0, 2.0, 3.0], atol=0.2)

    def test_total_failure_raises_with_cause(self, rng, monkeypatch):
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("nope")

        monkeypatch.setattr(np.linalg, "lstsq", broken)
        monkeypatch.setattr(np.linalg, "solve", broken)
        monkeypatch.setattr(np.linalg, "pinv", broken)
        with pytest.raises(NumericalError) as ei:
            fit_ols(X, y)
        assert ei.value.cause == "lsq-non-finite"


class TestNnDivergenceDetection:
    def test_gd_with_huge_rate_raises_divergence(self, rng, monkeypatch):
        # Plain gradient descent at an absurd rate explodes within a few
        # epochs; the detector must convert that into a typed error rather
        # than returning a NaN-weight network.
        monkeypatch.setattr(training, "MAX_RATE", 1e6)
        monkeypatch.setattr(training, "DIVERGENCE_FACTOR", 10.0)
        net = MLP([3, 4, 1], rng)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        config = TrainingConfig(optimizer="gd", learning_rate=1e6, max_epochs=200)
        with pytest.raises(NumericalError) as ei:
            train(net, X, y, config)
        assert ei.value.cause == "nn-divergence"
        assert ei.value.context["epoch"] >= 1

    def test_clean_training_unaffected(self, rng):
        net = MLP([3, 4, 1], rng)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + 0.1 * rng.normal(size=40)) * 0.1
        result = train(net, X, y, TrainingConfig(max_epochs=50))
        assert np.isfinite(result.final_train_loss)


class TestNnSeededRestarts:
    def test_restarts_recover_from_transient_divergence(self, rng, monkeypatch):
        import repro.ml.nn.model as model_mod
        from repro.ml.nn.model import NeuralNetworkModel
        from repro.specdata.schema import records_to_dataset
        from repro.specdata.generator import generate_family_records

        recs = [r for r in generate_family_records("opteron-2", seed=1)
                if r.year == 2005]
        train_ds = records_to_dataset(recs)

        calls = {"n": 0}
        real_name, real_builder = model_mod.NN_METHODS["quick"]

        def flaky(X, y, rng_):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalError("synthetic", cause="nn-divergence")
            return real_builder(X, y, rng_)

        monkeypatch.setitem(model_mod.NN_METHODS, "quick", (real_name, flaky))
        model = NeuralNetworkModel(method="quick", seed=0)
        model.fit(train_ds)
        assert calls["n"] == 2
        assert np.isfinite(model.predict(train_ds)).all()

    def test_exhausted_restarts_raise_typed(self, monkeypatch):
        import repro.ml.nn.model as model_mod
        from repro.ml.nn.model import NeuralNetworkModel
        from repro.specdata.schema import records_to_dataset
        from repro.specdata.generator import generate_family_records

        recs = [r for r in generate_family_records("opteron-2", seed=1)
                if r.year == 2005]
        train_ds = records_to_dataset(recs)

        def always_fails(X, y, rng_):
            raise NumericalError("synthetic", cause="nn-divergence")

        monkeypatch.setitem(model_mod.NN_METHODS, "quick",
                            ("NN-Q", always_fails))
        monkeypatch.setattr(model_mod, "MAX_RESTARTS", 1)
        model = NeuralNetworkModel(method="quick", seed=0)
        with pytest.raises(NumericalError) as ei:
            model.fit(train_ds)
        assert ei.value.cause == "nn-restarts-exhausted"
        assert ei.value.context["attempts"] == 2
