"""Feature expansion for linear models: pairwise interactions and squares.

The paper's related work (Lee & Brooks, ASPLOS 2006 — its ref [3]) shows
regression models for architectural prediction need non-linear feature
terms to compete with neural networks. This module provides the classic
degree-2 expansion — per-feature squares and pairwise products — so the
library can quantify exactly how much of the LR-vs-NN gap on the simulated
design spaces (Figures 2-6) is plain missing curvature. The
``benchmarks/test_bench_ablation.py`` interaction ablation reports it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand_degree2", "degree2_feature_names"]


def expand_degree2(X: np.ndarray) -> np.ndarray:
    """Append degree-2 terms to a design matrix.

    Output columns: the original features, then ``x_j^2`` for each feature,
    then ``x_i * x_j`` for every ``i < j`` pair. Constant-zero expansion
    columns are kept (callers' selection machinery drops non-contributing
    predictors anyway).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, p = X.shape
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    inter = np.empty((n, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        inter[:, k] = X[:, i] * X[:, j]
    return np.hstack([X, X * X, inter])


def degree2_feature_names(names: list[str]) -> list[str]:
    """Feature names matching :func:`expand_degree2`'s column order."""
    p = len(names)
    return [*names, *(f"{n}^2" for n in names),
            *(f"{names[i]}*{names[j]}" for i in range(p) for j in range(i + 1, p))]
