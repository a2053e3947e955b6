"""Surrogate-guided design-space search utilities.

The paper motivates its models with design-space exploration: "finding the
best configuration that meets the designers' constraints" (§1). These
helpers quantify how good a trained surrogate actually is at that job —
not merely its mean error, but whether it *ranks* designs correctly and
how much performance a designer loses by trusting its top picks.

Metrics
-------
``regret``
    Extra response (e.g. cycles) of the surrogate's chosen-best
    configuration relative to the true optimum, as a fraction.
``top_k_recall``
    Fraction of the true best-k designs that appear in the surrogate's
    predicted best-k.
``rank_correlation``
    Spearman correlation between predicted and true responses — the
    figure of merit for "can I order candidate designs by this model".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset

__all__ = ["SearchQuality", "evaluate_search_quality", "rank_correlation",
           "regret", "top_k_recall"]


def regret(predicted: np.ndarray, actual: np.ndarray, minimize: bool = True) -> float:
    """Relative loss of picking the predicted optimum over the true one.

    0.0 means the surrogate found the true optimum; 0.05 means its pick is
    5 % worse than the best available design.
    """
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError("predicted and actual must be equal-length, non-empty")
    if minimize:
        pick = int(np.argmin(predicted))
        best = float(actual.min())
        return float(actual[pick] / best - 1.0) if best > 0 else 0.0
    pick = int(np.argmax(predicted))
    best = float(actual.max())
    return float(1.0 - actual[pick] / best) if best > 0 else 0.0


def top_k_recall(
    predicted: np.ndarray, actual: np.ndarray, k: int, minimize: bool = True
) -> float:
    """|true-best-k ∩ predicted-best-k| / k."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual must be equal-length")
    if not (1 <= k <= predicted.size):
        raise ValueError(f"k must be in [1, {predicted.size}], got {k}")
    sign = 1.0 if minimize else -1.0
    pred_top = set(np.argsort(sign * predicted)[:k].tolist())
    true_top = set(np.argsort(sign * actual)[:k].tolist())
    return len(pred_top & true_top) / k


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Tie-averaged 1-based ranks of a 1-D float array.

    Bit-identical to ``scipy.stats.rankdata(x)``, NaN policy included: any
    NaN makes every rank NaN, since ranks relative to a NaN are undefined.
    """
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    new = np.concatenate(([True], xs[1:] != xs[:-1]))
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(new)
    # count[d] = number of elements in the first d distinct values, so
    # tie group d spans ordinal ranks count[d-1] + 1 .. count[d].
    count = np.append(np.flatnonzero(new), x.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def rank_correlation(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Spearman rank correlation between predictions and ground truth."""
    predicted = np.asarray(predicted, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if predicted.shape != actual.shape or predicted.size < 2:
        raise ValueError("need >= 2 paired observations")
    rp = _average_ranks(predicted)
    ra = _average_ranks(actual)
    rp -= rp.mean()
    ra -= ra.mean()
    denom = float(np.sqrt((rp @ rp) * (ra @ ra)))
    if denom == 0.0:
        return 0.0
    return float((rp @ ra) / denom)


@dataclass(frozen=True)
class SearchQuality:
    """How well a surrogate supports design-space search."""

    regret: float
    top_10_recall: float
    top_50_recall: float
    rank_correlation: float
    n_designs: int


def evaluate_search_quality(
    model: PredictiveModel,
    space: Dataset,
    minimize: bool = True,
) -> SearchQuality:
    """Score a fitted surrogate's search usefulness over a full space."""
    pred = model.predict(space)
    y = space.target
    return SearchQuality(
        regret=regret(pred, y, minimize),
        top_10_recall=top_k_recall(pred, y, min(10, space.n_records), minimize),
        top_50_recall=top_k_recall(pred, y, min(50, space.n_records), minimize),
        rank_correlation=rank_correlation(pred, y),
        n_designs=space.n_records,
    )
