"""Sampled design-space exploration (paper Figure 1a, §4.2).

The workflow: randomly sample 1-5% of the design space, "simulate" the
sampled configurations (here: evaluate them on the CPU simulator), train
each candidate model on the sample, estimate its predictive error by
5×50%-holdout cross-validation, and finally score the *true* error against
the whole design space — which is exactly what Figures 2-6 plot (estimated
vs. true error per model per sampling rate) and what Table 3 aggregates.

The "select" meta-method picks, per task, the model with the lowest
*estimated* (max-statistic) error and deploys it; Table 3's last row shows
its true error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.ml.dataset import Dataset
from repro.ml.selection import ErrorEstimate, ModelBuilder, estimate_errors
from repro.obs import phase as _obs_phase
from repro.parallel.executor import Executor
from repro.util.stats import mean_absolute_percentage_error

if TYPE_CHECKING:  # import cycle: repro.robust.ladder imports core.models
    from repro.robust.ladder import DegradationLadder

__all__ = ["ModelOutcome", "SampledDseResult", "run_sampled_dse", "run_rate_sweep", "sampling_counts"]


@dataclass(frozen=True)
class ModelOutcome:
    """One model's estimated and true error at one sampling rate."""

    label: str
    estimate: ErrorEstimate
    true_error: float
    #: Model actually deployed for this label. Differs from ``label`` only
    #: when a degradation ladder stepped in (``None``: no ladder in play).
    deployed: str | None = None

    @property
    def degraded(self) -> bool:
        return self.deployed is not None and self.deployed != self.label

    @property
    def estimated_error_max(self) -> float:
        """The paper's preferred (max over repetitions) estimate."""
        return self.estimate.max

    @property
    def estimated_error_mean(self) -> float:
        return self.estimate.mean


@dataclass(frozen=True)
class SampledDseResult:
    """Everything the sampled-DSE figures/tables need for one run."""

    rate: float
    n_sampled: int
    outcomes: Mapping[str, ModelOutcome]
    select_label: str
    select_true_error: float

    def true_errors(self) -> dict[str, float]:
        return {k: o.true_error for k, o in self.outcomes.items()}

    def estimated_errors(self) -> dict[str, float]:
        return {k: o.estimated_error_max for k, o in self.outcomes.items()}


def sampling_counts(n_total: int, rate: float) -> int:
    """Number of configurations to sample at a given rate (at least 4)."""
    if not (0.0 < rate < 1.0):
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    return max(4, int(round(rate * n_total)))


def run_sampled_dse(
    space: Dataset,
    builders: Mapping[str, ModelBuilder],
    rate: float,
    rng: np.random.Generator,
    n_cv_reps: int = 5,
    select_statistic: str = "max",
    executor: Executor | None = None,
    ladder: "DegradationLadder | None" = None,
) -> SampledDseResult:
    """Run the Figure-1a workflow at one sampling rate.

    Parameters
    ----------
    space:
        The full design space with simulated responses (the "ground truth"
        the paper scores true error against).
    builders:
        Candidate models, keyed by label.
    rate:
        Sampling fraction (paper: 0.01-0.05).
    n_cv_reps:
        Repetitions of the 50% holdout error estimation (paper: 5).
    select_statistic:
        ``"max"`` (paper default) or ``"mean"`` — which estimate drives the
        select meta-method.
    executor:
        Optional executor for the holdout estimates (the heavy model fits),
        one task per whole estimate. All shared randomness stays in this
        driver, so results are bit-identical with and without an executor —
        and a :class:`repro.parallel.ResilientExecutor` adds retry, timeout,
        and checkpoint/resume (one journal line per estimate) behaviour
        without changing the numbers.
    ladder:
        Optional :class:`~repro.robust.ladder.DegradationLadder`. When set,
        each model is trained through the ladder: numerical failures and
        gate rejections degrade to the next rung instead of aborting, and
        :attr:`ModelOutcome.deployed` records what actually ran. A model
        that trains cleanly and passes its gate takes the exact same code
        path (and RNG draws) as without a ladder, so clean runs are
        bit-identical.
    """
    if not builders:
        raise ValueError("no model builders given")
    n = sampling_counts(space.n_records, rate)
    with _obs_phase("sampled-dse", rate=rate, n_sampled=n,
                    n_models=len(builders)):
        sample, _ = space.sample(n, rng)

        if ladder is None:
            estimates = estimate_errors(builders, sample, rng, n_reps=n_cv_reps,
                                        executor=executor)
        outcomes: dict[str, ModelOutcome] = {}
        for label, builder in builders.items():
            deployed: str | None = None
            if ladder is not None:
                model, estimate, walk = ladder.fit_model(
                    label, builder, sample, rng, n_cv_reps=n_cv_reps,
                    executor=executor)
                deployed = walk.deployed
            else:
                estimate = estimates[label]
                model = builder()
                with _obs_phase("train", model=label, n_records=sample.n_records):
                    model.fit(sample)
            with _obs_phase("predict", model=label, n_records=space.n_records):
                predictions = model.predict(space)
            true_err = mean_absolute_percentage_error(predictions, space.target)
            outcomes[label] = ModelOutcome(label=label, estimate=estimate,
                                           true_error=true_err, deployed=deployed)

        select_label = min(
            outcomes, key=lambda k: outcomes[k].estimate.value(select_statistic)
        )
    return SampledDseResult(
        rate=rate,
        n_sampled=n,
        outcomes=outcomes,
        select_label=select_label,
        select_true_error=outcomes[select_label].true_error,
    )


def run_rate_sweep(
    space: Dataset,
    builders: Mapping[str, ModelBuilder],
    rates: Sequence[float],
    rng: np.random.Generator,
    n_cv_reps: int = 5,
    executor: Executor | None = None,
    ladder: "DegradationLadder | None" = None,
) -> list[SampledDseResult]:
    """Run the workflow across sampling rates (the x-axis of Figures 2-6).

    Pass an ``executor`` to fan out (and make resilient) the per-rate model
    fits. ``ladder`` is passed through to :func:`run_sampled_dse`.
    """
    return [
        run_sampled_dse(space, builders, rate, rng, n_cv_reps=n_cv_reps,
                        executor=executor, ladder=ladder)
        for rate in rates
    ]
