"""Post-training sanity gates: a model must earn trust before deployment.

A "trained" model can still be garbage: a saturated network that predicts
NaN outside its envelope, a least-squares fit whose rescue solver produced
coefficients that explain nothing, a holdout error of 40 000%. PR 1 made
the *executor* fault-tolerant, but a task that succeeds with a poisoned
model still wins the sweep. :class:`ValidationGate` is the contract every
model must satisfy *after* training and *before*
:func:`repro.ml.selection.select_model` or a driver may deploy it:

1. **finite-predictions** — predictions over the model's own training
   domain must be finite (NaN here means the model cannot even reproduce
   the data it saw);
2. **holdout-error** — the cross-validation estimate (the paper's 5×50%
   max statistic) must be finite and within a configurable bound.

Gate outcomes are counted (``robust.gate.passes`` / ``.failures``) and
traced as ``gate`` events; gating consumes no randomness, so a passing
model's numbers are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset
from repro.ml.selection import ErrorEstimate
from repro.obs import annotate as _annotate
from repro.obs.metrics import default_registry as _metrics
from repro.util.validation import nonfinite_count

__all__ = ["GateCheck", "GateResult", "ValidationGate"]


@dataclass(frozen=True)
class GateCheck:
    """One named gate check and its outcome."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class GateResult:
    """All gate checks for one model."""

    model_name: str
    checks: tuple[GateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.checks if not c.passed]

    def summary(self) -> str:
        if self.passed:
            return f"{self.model_name}: passed {len(self.checks)} gate check(s)"
        return f"{self.model_name}: FAILED — " + "; ".join(self.failures())


@dataclass(frozen=True)
class ValidationGate:
    """Post-training sanity gates.

    Parameters
    ----------
    max_holdout_error:
        Upper bound (percent) on the max holdout error estimate (the
        paper's statistic); ``None`` disables the bound (finiteness is still
        required). The default is deliberately loose — the gate exists to
        catch *broken* models (hundreds-fold errors, NaN), not to
        second-guess model selection.
    """

    max_holdout_error: float | None = 500.0

    def check_estimate(self, estimate: ErrorEstimate) -> GateCheck:
        """The holdout-error check alone (used by estimate-only callers)."""
        value = estimate.max
        if not np.isfinite(value):
            return GateCheck("holdout-error", False, f"max estimate is {value!r}")
        if self.max_holdout_error is not None and value > self.max_holdout_error:
            return GateCheck(
                "holdout-error", False,
                f"max estimate {value:.1f}% exceeds bound "
                f"{self.max_holdout_error:.1f}%")
        return GateCheck("holdout-error", True, f"{value:.2f}%")

    def check(
        self,
        model: PredictiveModel,
        train: Dataset,
        estimate: ErrorEstimate | None = None,
    ) -> GateResult:
        """Run every applicable gate check on a fitted model.

        ``estimate`` is optional: callers without a cross-validation
        estimate (e.g. the mean-baseline floor of a degradation ladder)
        are gated on prediction sanity only.
        """
        preds = np.asarray(model.predict(train), dtype=np.float64)
        n_bad = nonfinite_count(preds)
        checks = [GateCheck(
            "finite-predictions", n_bad == 0,
            "all finite on the training domain" if n_bad == 0 else
            f"{n_bad}/{preds.size} non-finite prediction(s) on the "
            f"training domain")]
        if estimate is not None:
            checks.append(self.check_estimate(estimate))
        result = GateResult(model_name=model.name, checks=tuple(checks))
        if result.passed:
            _metrics().counter("robust.gate.passes").inc()
        else:
            _metrics().counter("robust.gate.failures").inc()
            _annotate("gate", model=model.name, passed=False,
                      failures=result.failures())
        return result
