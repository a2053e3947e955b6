"""Error estimation by repeated 50% holdout, the input to "select".

Paper §3.3: Clementine itself gives no predictive-error estimate, so the
authors "generated five random sets of 50% of the training data, and
calculated the error the model achieves on these data subsets using
cross-validation", taking both the average and the maximum of the five
estimates — and report the **maximum**, which "in general … gives a closer
estimate" of the true error.

Paper §4.4 ("select method"): among candidate models, deploy the one whose
*estimated* error is lowest. :func:`repro.core.sampled.run_sampled_dse`
makes that pick from the estimates computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset
from repro.obs import phase as _obs_phase
from repro.parallel.executor import Executor, SerialExecutor
from repro.util.stats import mean_absolute_percentage_error

__all__ = ["ErrorEstimate", "estimate_error", "estimate_errors", "ModelBuilder"]

#: A zero-argument factory producing a fresh, unfit model.
ModelBuilder = Callable[[], PredictiveModel]


@dataclass(frozen=True)
class ErrorEstimate:
    """Cross-validation error estimate for one model on one training set."""

    model_name: str
    per_rep: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Average estimated percentage error over the repetitions."""
        return float(np.mean(self.per_rep))

    @property
    def max(self) -> float:
        """Maximum estimated error — the paper's preferred estimate."""
        return float(np.max(self.per_rep))

    def value(self, statistic: str = "max") -> float:
        """Return the requested estimate ('max' or 'mean')."""
        if statistic not in ("max", "mean"):
            raise ValueError(f"statistic must be 'max' or 'mean', got {statistic!r}")
        return self.max if statistic == "max" else self.mean


def _holdout_task(args) -> ErrorEstimate:
    """One whole estimate, one executor task: per ``(fit, eval)`` index pair
    of ``splits``, fit a fresh model on one half of ``train`` and score MAPE
    on the other. The fits go through
    :meth:`~repro.ml.base.PredictiveModel.fit_many`, so models that can share
    training work do (an estimate's NN builds train in lockstep).
    Module-level so it can cross a process boundary."""
    builder, train, splits = args
    models = [builder() for _ in splits]
    name = models[0].name
    with _obs_phase("holdout", model=name, n_reps=len(splits),
                    n_records=train.n_records):
        parts = [(train.take(s), train.take(r)) for s, r in splits]
        type(models[0]).fit_many(models, [fit_part for fit_part, _ in parts])
        errors = [mean_absolute_percentage_error(model.predict(eval_part), eval_part.target)
                  for model, (_, eval_part) in zip(models, parts)]
    return ErrorEstimate(model_name=name, per_rep=tuple(errors))


def estimate_errors(
    builders: Mapping[str, ModelBuilder],
    train: Dataset,
    rng: np.random.Generator,
    n_reps: int = 5,
    holdout: float = 0.5,
    executor: Executor | None = None,
) -> dict[str, ErrorEstimate]:
    """Estimate every candidate's predictive error on ``train``, keyed by label.

    All splits are drawn serially from ``rng`` first, ``n_reps`` per label
    in ``builders`` order (the stream one :func:`estimate_error` per label
    draws), so no number depends on the executor (default: a
    :class:`~repro.parallel.executor.SerialExecutor`). Each label's whole
    estimate is one task that carries ``train`` itself, so a task's
    fingerprint hashes the training set's content and a pool run's journal
    restores in a serial resume.
    """
    if n_reps <= 0:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    splits = {label: [train.random_split_indices(holdout, rng) for _ in range(n_reps)]
              for label in builders}
    if executor is None:
        executor = SerialExecutor()
    estimates = executor.map(
        _holdout_task,
        [(builder, train, splits[label]) for label, builder in builders.items()])
    return dict(zip(builders, estimates))


def estimate_error(
    builder: ModelBuilder,
    train: Dataset,
    rng: np.random.Generator,
    n_reps: int = 5,
    holdout: float = 0.5,
    executor: Executor | None = None,
) -> ErrorEstimate:
    """Estimate a model's predictive error on ``train`` by repeated holdout.

    Each repetition trains a fresh model on a random ``holdout`` fraction of
    ``train`` and measures mean |percentage error| on the remainder —
    Clementine's train/"simulate" split, repeated ``n_reps`` times.

    The one-model case of :func:`estimate_errors`: an ``executor`` runs the
    whole estimate as one task, and the numbers do not depend on it.
    """
    (estimate,) = estimate_errors({"model": builder}, train, rng, n_reps=n_reps,
                                  holdout=holdout, executor=executor).values()
    return estimate

