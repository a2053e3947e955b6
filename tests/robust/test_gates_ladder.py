"""Tests for validation gates and the model-degradation ladder."""

import numpy as np
import pytest

from repro.core.models import model_builders
from repro.errors import DegradationExhausted, ModelValidationError, NumericalError
from repro.ml.base import PredictiveModel
from repro.ml.selection import ErrorEstimate
from repro.robust import (
    DEFAULT_RUNGS,
    MEAN_BASELINE,
    DegradationLadder,
    MeanBaselineModel,
    ValidationGate,
    default_ladder,
)
from repro.specdata.schema import records_to_dataset


@pytest.fixture(scope="module")
def train(spec_archive):
    recs = [r for r in spec_archive("opteron-2") if r.year == 2005]
    return records_to_dataset(recs)


class _ExplodingModel(PredictiveModel):
    """Fails training with a typed numerical error (a divergent NN stand-in)."""

    name = "exploder"

    def fit(self, data):
        raise NumericalError("synthetic divergence", cause="nn-divergence")

    def predict(self, data):  # pragma: no cover - fit always raises
        raise AssertionError("unreachable")


class _NanModel(PredictiveModel):
    """Trains 'successfully' but predicts NaN — the gate's reason to exist."""

    name = "nan-model"

    def fit(self, data):
        return self

    def predict(self, data):
        return np.full(data.n_records, np.nan)


class TestValidationGate:
    def test_estimate_checks(self):
        gate = ValidationGate(max_holdout_error=50.0)
        ok = ErrorEstimate("m", (3.0, 4.0))
        assert gate.check_estimate(ok).passed
        too_big = ErrorEstimate("m", (3.0, 80.0))
        assert not gate.check_estimate(too_big).passed
        nan = ErrorEstimate("m", (float("nan"),))
        assert not gate.check_estimate(nan).passed

    def test_none_bound_requires_finiteness_only(self):
        gate = ValidationGate(max_holdout_error=None)
        assert gate.check_estimate(ErrorEstimate("m", (1e9,))).passed
        assert not gate.check_estimate(ErrorEstimate("m", (float("inf"),))).passed

    def test_finite_prediction_gate(self, train):
        gate = ValidationGate()
        good = MeanBaselineModel().fit(train)
        assert gate.check(good, train).passed
        bad = _NanModel().fit(train)
        result = gate.check(bad, train)
        assert not result.passed
        assert "non-finite" in result.failures()[0]

    def test_passing_model_with_estimate(self, train):
        gate = ValidationGate(max_holdout_error=500.0)
        model = MeanBaselineModel().fit(train)
        result = gate.check(model, train, ErrorEstimate("m", (10.0,)))
        assert result.passed and len(result.checks) == 2


class TestMeanBaseline:
    def test_predicts_train_mean(self, train):
        model = MeanBaselineModel().fit(train)
        preds = model.predict(train)
        assert np.allclose(preds, float(np.mean(train.target)))

    def test_requires_fit(self, train):
        with pytest.raises(RuntimeError):
            MeanBaselineModel().predict(train)


class TestDegradationLadder:
    def test_default_ladder_shape(self):
        ladder = default_ladder(seed=0)
        assert ladder.rungs == DEFAULT_RUNGS
        assert ladder.rungs[-1] == MEAN_BASELINE
        assert callable(ladder.builder_for("LR-S"))
        assert ladder.builder_for(MEAN_BASELINE) is MeanBaselineModel

    def test_missing_builder_rejected(self):
        with pytest.raises(ValueError, match="no builder"):
            DegradationLadder(rungs=("LR-S", MEAN_BASELINE), builders={})

    def test_clean_primary_is_accepted_undegraded(self, train, rng):
        ladder = default_ladder(seed=3)
        builders = model_builders(("LR-S",), seed=3)
        model, estimate, walk = ladder.fit_model(
            "LR-S", builders["LR-S"], train, rng, n_cv_reps=2)
        assert walk.deployed == "LR-S" and not walk.degraded
        assert [s.outcome for s in walk.steps] == ["accepted"]
        assert np.isfinite(model.predict(train)).all()
        assert np.isfinite(estimate.max)

    def test_numerical_failure_degrades(self, train, rng):
        ladder = DegradationLadder(
            rungs=("LR-B", MEAN_BASELINE),
            builders=dict(model_builders(("LR-B",), seed=3)))
        model, _, walk = ladder.fit_model(
            "exploder", _ExplodingModel, train, rng, n_cv_reps=2)
        assert walk.degraded and walk.deployed == "LR-B"
        assert walk.steps[0].outcome == "numerical-failure"
        assert "nn-divergence" in walk.steps[0].detail
        assert np.isfinite(model.predict(train)).all()

    def test_degrades_to_mean_baseline_floor(self, train, rng):
        # No intermediate rungs: the exploder must land on the floor.
        ladder = DegradationLadder(rungs=(MEAN_BASELINE,), builders={})
        model, _, walk = ladder.fit_model(
            "exploder", _ExplodingModel, train, rng, n_cv_reps=2)
        assert walk.deployed == MEAN_BASELINE
        assert isinstance(model, MeanBaselineModel)
        assert np.isfinite(model.predict(train)).all()

    def test_gate_failure_degrades(self, train, rng):
        # An impossible bound fails every real model; the floor (gated on
        # finiteness only) still deploys.
        ladder = DegradationLadder(
            rungs=("LR-B", MEAN_BASELINE),
            builders=dict(model_builders(("LR-B",), seed=3)),
            gate=ValidationGate(max_holdout_error=1e-12))
        builders = model_builders(("LR-S",), seed=3)
        model, _, walk = ladder.fit_model(
            "LR-S", builders["LR-S"], train, rng, n_cv_reps=2)
        assert walk.deployed == MEAN_BASELINE
        assert [s.outcome for s in walk.steps] == [
            "gate-failed", "gate-failed", "accepted"]

    def test_exhaustion_raises_typed_error(self, train, rng):
        ladder = DegradationLadder(rungs=("bad",),
                                   builders={"bad": _NanModel})
        with pytest.raises(DegradationExhausted) as ei:
            ladder.fit_model("bad", _NanModel, train, rng, n_cv_reps=2)
        assert ei.value.exit_code == 10
        assert ei.value.failures  # every step recorded
        assert isinstance(ei.value, ModelValidationError)

    def test_requested_rung_not_retried(self):
        ladder = default_ladder(seed=0)
        assert "NN-Q" not in ladder._fallbacks("NN-Q")
        # Degradation continues strictly below the requested rung.
        assert ladder._fallbacks("LR-S") == ["LR-E", MEAN_BASELINE]
        # A non-rung label gets the whole ladder.
        assert ladder._fallbacks("LR-B") == list(DEFAULT_RUNGS)
