"""Registry of the paper's predictive models.

The paper compares nine Clementine models — four linear-regression methods
(LR-E, LR-S, LR-F, LR-B) and five neural-network training methods (NN-Q,
NN-D, NN-M, NN-P, NN-E) — plus the Single-layer network NN-S used in the
sampled-DSE study ("similar to the model developed by Ipek et al.").

:func:`model_builders` returns zero-argument factories keyed by paper
label, the form :mod:`repro.ml.selection` consumes; subsets match what
each experiment displays (Figures 2-6 use LR-B / NN-E / NN-S; Figures 7-8
use all nine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset
from repro.ml.linear import LinearRegressionModel
from repro.ml.nn import NeuralNetworkModel
from repro.ml.selection import ErrorEstimate, ModelBuilder, estimate_errors
from repro.obs import phase as _obs_phase
from repro.parallel.executor import Executor

if TYPE_CHECKING:  # import cycle: repro.robust.ladder imports this module
    from repro.robust.ladder import DegradationLadder

__all__ = [
    "ALL_MODELS",
    "NINE_MODELS",
    "SAMPLED_DSE_MODELS",
    "model_builders",
    "build_model",
    "fit_and_predict",
]

#: label -> (kind, method) for every model in the paper.
ALL_MODELS: dict[str, tuple[str, str]] = {
    "LR-E": ("linear", "enter"),
    "LR-S": ("linear", "stepwise"),
    "LR-B": ("linear", "backward"),
    "LR-F": ("linear", "forward"),
    "NN-Q": ("nn", "quick"),
    "NN-D": ("nn", "dynamic"),
    "NN-M": ("nn", "multiple"),
    "NN-P": ("nn", "prune"),
    "NN-E": ("nn", "exhaustive"),
    "NN-S": ("nn", "single"),
}

#: The nine models of the chronological study (Figures 7-8), paper order.
NINE_MODELS: tuple[str, ...] = (
    "LR-E", "LR-S", "LR-B", "LR-F", "NN-Q", "NN-D", "NN-M", "NN-P", "NN-E",
)

#: The three models the sampled-DSE figures present (Figures 2-6).
SAMPLED_DSE_MODELS: tuple[str, ...] = ("NN-E", "NN-S", "LR-B")


def build_model(label: str, seed: int = 0) -> PredictiveModel:
    """Instantiate one model by its paper label."""
    try:
        kind, method = ALL_MODELS[label]
    except KeyError:
        raise ValueError(f"unknown model {label!r}; options: {sorted(ALL_MODELS)}") from None
    if kind == "linear":
        return LinearRegressionModel(method)
    return NeuralNetworkModel(method, seed=seed)


class _Factory:
    """Picklable zero-argument model factory."""

    def __init__(self, label: str, seed: int) -> None:
        self.label = label
        self.seed = seed

    def __call__(self) -> PredictiveModel:
        return build_model(self.label, self.seed)

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Factory({self.label!r}, seed={self.seed})"


def model_builders(
    labels: tuple[str, ...] | list[str] = NINE_MODELS, seed: int = 0
) -> Mapping[str, ModelBuilder]:
    """Zero-argument factories for the requested models, keyed by label."""
    unknown = [lab for lab in labels if lab not in ALL_MODELS]
    if unknown:
        raise ValueError(f"unknown model labels: {unknown}")
    return {label: _Factory(label, seed) for label in labels}


def fit_and_predict(
    builders: Mapping[str, ModelBuilder],
    train: Dataset,
    test: Dataset,
    rng: np.random.Generator,
    n_cv_reps: int,
    executor: Executor | None,
    ladder: "DegradationLadder | None",
) -> Iterator[tuple[str, ErrorEstimate, np.ndarray, str | None]]:
    """Fit every candidate on ``train`` and predict ``test``, the loop both
    paper workflows share.

    Yields ``(label, estimate, predictions, deployed)`` in ``builders``
    order. Without a ladder all holdout estimates run first
    (:func:`~repro.ml.selection.estimate_errors`), then each model trains in
    a ``train`` span and ``deployed`` is ``None``; with one,
    :meth:`~repro.robust.ladder.DegradationLadder.fit_model` estimates and
    fits each label in turn and ``deployed`` names the rung that ran. Each
    prediction runs in a ``predict`` span.
    """
    if ladder is None:
        estimates = estimate_errors(builders, train, rng, n_reps=n_cv_reps,
                                    executor=executor)
    for label, builder in builders.items():
        deployed: str | None = None
        if ladder is not None:
            model, estimate, walk = ladder.fit_model(
                label, builder, train, rng, n_cv_reps=n_cv_reps, executor=executor)
            deployed = walk.deployed
        else:
            estimate = estimates[label]
            model = builder()
            with _obs_phase("train", model=label, n_records=train.n_records):
                model.fit(train)
        with _obs_phase("predict", model=label, n_records=test.n_records):
            predictions = model.predict(test)
        yield label, estimate, predictions, deployed
