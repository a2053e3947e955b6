"""Prediction-quality metrics (re-exported from :mod:`repro.util.stats`).

The paper's single error metric is the mean percentage error
``100 * |ŷ - y| / y`` (§4.2); the paper's accuracy is ``100 - error``. Standard
deviation of the per-record errors is what Figure 7/8's error bars show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.stats import mean_absolute_percentage_error, percentage_errors

__all__ = [
    "mean_absolute_percentage_error",
    "percentage_errors",
    "ErrorSummary",
    "summarize_errors",
]


@dataclass(frozen=True)
class ErrorSummary:
    """Mean and spread of per-record percentage errors (Fig. 7/8 style)."""

    mean: float
    std: float
    max: float
    n: int


def summarize_errors(predicted: np.ndarray, actual: np.ndarray) -> ErrorSummary:
    """Summarize percentage errors: mean (circle), std (error bar), max, n."""
    errs = percentage_errors(predicted, actual)
    return ErrorSummary(
        mean=float(errs.mean()),
        std=float(errs.std()),
        max=float(errs.max()),
        n=int(errs.size),
    )
