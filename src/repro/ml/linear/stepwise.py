"""Predictor-subset selection: Enter, Forward, Backward, Stepwise.

These are the four methods of Clementine's linear-regression node that the
paper compares as LR-E, LR-F, LR-B, and LR-S:

* **Enter** — keep every predictor (no selection). The paper finds this
  wins on single-processor chronological tasks but over-fits multiprocessor
  ones (§4.3).
* **Forward** — start empty; repeatedly add the predictor whose partial-F
  p-value is smallest, while it is below ``alpha_enter``.
* **Backward** — start full; repeatedly remove the predictor whose
  partial-F p-value is largest, while it is above ``alpha_remove``. The
  paper reports LR-B as the best LR model for sampled DSE.
* **Stepwise** — forward, but after every addition re-check previously
  added predictors for removal. LR-S and LR-B "converge to the same model"
  on the Opteron multiprocessor tasks (§4.3), which this implementation
  reproduces.

Default thresholds follow SPSS: ``alpha_enter = 0.05``,
``alpha_remove = 0.10`` (remove must exceed enter to prevent cycling).

Candidate subsets are only solved (:func:`~repro.ml.linear.lsq.solve_ols`):
the partial-F test reads nothing but the SSE and residual degrees of
freedom. The selected subset's solve is completed into its full
:class:`~repro.ml.linear.lsq.OlsFit` once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.linear.lsq import OlsFit, OlsSolve, fit_ols, partial_f_pvalue, solve_ols

__all__ = ["SelectionResult", "select_enter", "select_forward", "select_backward", "select_stepwise"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection procedure.

    Attributes
    ----------
    selected:
        Indices of retained predictors, ascending.
    fit:
        OLS fit on the retained predictors (``None`` when nothing was
        selected; the caller then falls back to the intercept-only model).
    history:
        Human-readable trace of add/remove steps for diagnostics.
    """

    selected: tuple[int, ...]
    fit: OlsFit | None
    history: tuple[str, ...]


def _solve_subset(X: np.ndarray, y: np.ndarray, subset: list[int]) -> OlsSolve:
    return solve_ols(X[:, subset], y)


def select_enter(X: np.ndarray, y: np.ndarray, **_: float) -> SelectionResult:
    """LR-E: use all predictors."""
    p = X.shape[1]
    subset = list(range(p))
    return SelectionResult(tuple(subset), fit_ols(X[:, subset], y), ("enter: all",))


def _best_addition(
    X: np.ndarray, y: np.ndarray, current: list[int], fit_cur: OlsSolve | None
) -> tuple[int, float, OlsSolve] | None:
    """Find the candidate whose addition has the smallest partial-F p-value."""
    p = X.shape[1]
    best: tuple[int, float, OlsSolve] | None = None
    reduced = fit_cur if fit_cur is not None else solve_ols(np.empty((X.shape[0], 0)), y)
    for j in range(p):
        if j in current:
            continue
        trial = sorted(current + [j])
        fit_try = _solve_subset(X, y, trial)
        pval = partial_f_pvalue(reduced, fit_try)
        if best is None or pval < best[1]:
            best = (j, pval, fit_try)
    return best


def _worst_removal(
    X: np.ndarray, y: np.ndarray, current: list[int], fit_cur: OlsSolve
) -> tuple[int, float, OlsSolve] | None:
    """Find the retained predictor whose removal has the largest p-value."""
    worst: tuple[int, float, OlsSolve] | None = None
    for j in current:
        trial = [k for k in current if k != j]
        fit_try = _solve_subset(X, y, trial)
        pval = partial_f_pvalue(fit_try, fit_cur)
        if worst is None or pval > worst[1]:
            worst = (j, pval, fit_try)
    return worst


def select_forward(
    X: np.ndarray, y: np.ndarray, alpha_enter: float = 0.05, **_: float
) -> SelectionResult:
    """LR-F: greedy forward selection."""
    current: list[int] = []
    fit_cur: OlsSolve | None = None
    history: list[str] = []
    while len(current) < X.shape[1]:
        step = _best_addition(X, y, current, fit_cur)
        if step is None or step[1] >= alpha_enter:
            break
        j, pval, fit_cur = step
        current = sorted(current + [j])
        history.append(f"add x{j} (p={pval:.4g})")
    if not current:
        return SelectionResult((), None, tuple(history) or ("forward: nothing significant",))
    return SelectionResult(tuple(current), fit_cur.fit(), tuple(history))


def select_backward(
    X: np.ndarray, y: np.ndarray, alpha_remove: float = 0.10, **_: float
) -> SelectionResult:
    """LR-B: greedy backward elimination."""
    current = list(range(X.shape[1]))
    fit_cur = _solve_subset(X, y, current)
    history: list[str] = []
    while current:
        step = _worst_removal(X, y, current, fit_cur)
        if step is None or step[1] <= alpha_remove:
            break
        j, pval, fit_cur = step
        current = [k for k in current if k != j]
        history.append(f"drop x{j} (p={pval:.4g})")
    if not current:
        return SelectionResult((), None, tuple(history))
    return SelectionResult(tuple(current), fit_cur.fit(), tuple(history))


def select_stepwise(
    X: np.ndarray,
    y: np.ndarray,
    alpha_enter: float = 0.05,
    alpha_remove: float = 0.10,
) -> SelectionResult:
    """LR-S: forward selection with backward re-checks after each addition."""
    if alpha_remove < alpha_enter:
        raise ValueError(
            f"alpha_remove ({alpha_remove}) must be >= alpha_enter ({alpha_enter}) "
            "to prevent add/remove cycling"
        )
    current: list[int] = []
    fit_cur: OlsSolve | None = None
    history: list[str] = []
    max_steps = 4 * X.shape[1] + 4  # cycling backstop; cannot trip with sane alphas
    for _ in range(max_steps):
        step = _best_addition(X, y, current, fit_cur)
        if step is None or step[1] >= alpha_enter:
            break
        j, pval, fit_cur = step
        current = sorted(current + [j])
        history.append(f"add x{j} (p={pval:.4g})")
        # Backward pass: drop anything that stopped pulling its weight.
        while len(current) > 1:
            worst = _worst_removal(X, y, current, fit_cur)
            if worst is None or worst[1] <= alpha_remove:
                break
            k, pval_rm, fit_cur = worst
            current = [c for c in current if c != k]
            history.append(f"drop x{k} (p={pval_rm:.4g})")
    if not current:
        return SelectionResult((), None, tuple(history) or ("stepwise: nothing significant",))
    return SelectionResult(tuple(current), fit_cur.fit(), tuple(history))
