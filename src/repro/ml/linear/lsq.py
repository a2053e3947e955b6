"""Ordinary least squares with the inference statistics stepwise needs.

Implements the textbook machinery of Montgomery, Peck & Vining (the paper's
reference [7]): QR-based least-squares fits, residual variance, coefficient
standard errors and t statistics, R², and the partial-F test that drives
Forward/Backward/Stepwise predictor selection.

Everything operates on plain design matrices; the intercept column is
managed internally so callers pass predictor matrices only.

Numerical robustness (see :mod:`repro.robust`): every fit records the
design's condition number (free — it falls out of the singular values
``lstsq`` already computes) and, when the primary solve produces non-finite
coefficients or the LAPACK driver fails to converge, walks a ridge → pinv
fallback chain before giving up with a typed
:class:`~repro.errors.NumericalError`. The primary path is untouched, so
clean inputs produce bit-identical coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import fdtrc, stdtr

from repro.errors import NumericalError
from repro.obs.metrics import default_registry as _metrics

__all__ = ["OlsFit", "OlsSolve", "fit_ols", "solve_ols", "partial_f_pvalue",
           "COND_ILL_THRESHOLD"]

#: Condition number beyond which a design is reported as ill-conditioned
#: (float64 has ~15.9 significant digits; past 1e12 the normal-equation
#: covariance is numerically meaningless).
COND_ILL_THRESHOLD = 1e12


@dataclass(frozen=True)
class OlsFit:
    """A fitted least-squares model ``y = β0 + X β + ε``.

    Attributes
    ----------
    intercept, coef:
        Estimated β0 and β (length p).
    sse, sst, r_squared:
        Residual and total sums of squares, coefficient of determination.
    sigma2:
        Unbiased residual variance estimate ``SSE / (n - p - 1)`` (0 when
        the fit is saturated or perfect).
    se:
        Coefficient standard errors (length p; ``nan`` where not estimable).
    t_values, p_values:
        t statistics and two-sided p-values for each coefficient.
    df_resid:
        Residual degrees of freedom ``n - p - 1``.
    """

    intercept: float
    coef: np.ndarray
    sse: float
    sst: float
    r_squared: float
    sigma2: float
    se: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    df_resid: int
    n_obs: int
    #: Condition number of the intercept-augmented design (sigma_max /
    #: sigma_min; inf when numerically singular, nan when unknown).
    condition_number: float = field(default=float("nan"), compare=False)
    #: Which solver produced the coefficients: "lstsq" (primary), "ridge",
    #: or "pinv" (fallback chain, engaged only on numerical failure).
    solver: str = field(default="lstsq", compare=False)

    @property
    def ill_conditioned(self) -> bool:
        """True when the design's condition number exceeds the threshold.

        ``nan`` (condition unknown) reads as False; ``inf`` (numerically
        singular) reads as True.
        """
        cond = self.condition_number
        return bool(np.isinf(cond) or cond > COND_ILL_THRESHOLD)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the fitted linear function on rows of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.coef.shape[0]:
            raise ValueError(
                f"expected shape (*, {self.coef.shape[0]}), got {X.shape}"
            )
        return self.intercept + X @ self.coef


def _design(X: np.ndarray) -> np.ndarray:
    """Prepend the intercept column."""
    n = X.shape[0]
    return np.hstack([np.ones((n, 1)), X])


def _condition_from_singular_values(sv: np.ndarray) -> float:
    """sigma_max / sigma_min from lstsq's singular values (inf if singular)."""
    if sv is None or sv.size == 0:
        return float("nan")
    smin = float(sv[-1])
    return float(sv[0]) / smin if smin > 0.0 else float("inf")


def _solve_design(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int, float, str]:
    """Solve ``min ||A b - y||`` with a ridge → pinv fallback chain.

    Returns ``(beta, rank, condition_number, solver)``. The primary
    ``lstsq`` path is tried first and, when it yields finite coefficients
    (the overwhelmingly common case), is returned untouched — the fallbacks
    exist for designs whose SVD fails to converge or whose minimum-norm
    solution comes back non-finite. Each fallback engagement is counted
    under ``robust.lsq.fallback.<solver>``; total failure raises a typed
    :class:`~repro.errors.NumericalError` instead of letting NaN
    coefficients poison every downstream prediction.
    """
    n, p1 = A.shape
    cond = float("nan")
    try:
        beta, _, rank, sv = np.linalg.lstsq(A, y, rcond=None)
        cond = _condition_from_singular_values(sv)
    except np.linalg.LinAlgError:
        # SVD did not converge; fall through to the ridge solve.
        beta, rank = np.full(p1, np.nan), p1
    if np.all(np.isfinite(beta)):
        if np.isinf(cond) or cond > COND_ILL_THRESHOLD:
            _metrics().counter("robust.lsq.ill_conditioned").inc()
        return beta, int(rank), cond, "lstsq"

    # Ridge: a tiny Tikhonov term (scaled to the design's energy) restores
    # positive-definiteness; the intercept column is penalized too, which is
    # acceptable for a rescue path.
    gram = A.T @ A
    lam = 1e-8 * max(float(np.trace(gram)) / p1, 1.0)
    try:
        beta = np.linalg.solve(gram + lam * np.eye(p1), A.T @ y)
    except np.linalg.LinAlgError:
        beta = np.full(p1, np.nan)
    if np.all(np.isfinite(beta)):
        _metrics().counter("robust.lsq.fallback.ridge").inc()
        return beta, p1, cond, "ridge"

    # Pseudo-inverse: the last resort, with an explicit cutoff.
    try:
        beta = np.linalg.pinv(A, rcond=1e-10) @ y
    except np.linalg.LinAlgError:
        beta = np.full(p1, np.nan)
    if np.all(np.isfinite(beta)):
        _metrics().counter("robust.lsq.fallback.pinv").inc()
        return beta, p1, cond, "pinv"

    _metrics().counter("robust.lsq.failures").inc()
    raise NumericalError(
        f"least-squares solve produced non-finite coefficients for a "
        f"{n}x{p1 - 1} design (condition number {cond:.3g}); "
        f"ridge and pinv fallbacks also failed",
        cause="lsq-non-finite",
        context={"n_obs": n, "n_predictors": p1 - 1, "condition_number": cond},
    )


def fit_ols(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """Fit OLS with intercept; tolerant of rank deficiency.

    Rank-deficient designs (collinear predictors — common in SPEC system
    records where e.g. cores-per-chip × chips = total cores) are resolved by
    the minimum-norm least-squares solution; the affected coefficients get
    ``nan`` standard errors and p-value 1.0 so stepwise treats them as
    non-significant.
    """
    return solve_ols(X, y).fit()


@dataclass(frozen=True)
class OlsSolve:
    """One least-squares solve: the coefficients, plus the SSE and residual
    degrees of freedom the partial-F test reads. :meth:`fit` completes it
    into an :class:`OlsFit` without solving again, so stepwise candidates
    pay for inference statistics only when they win."""

    A: np.ndarray
    y: np.ndarray
    beta: np.ndarray
    sse: float
    df_resid: int
    condition_number: float
    solver: str

    def fit(self) -> OlsFit:
        """The full fit: R², residual variance, standard errors, t and p."""
        A, y, beta_full, sse, df_resid = self.A, self.y, self.beta, self.sse, self.df_resid
        n, p = A.shape[0], A.shape[1] - 1
        centered = y - y.mean()
        sst = float(centered @ centered)
        r2 = 1.0 - sse / sst if sst > 0.0 else (1.0 if sse <= 1e-12 * max(1.0, abs(float(y @ y))) else 0.0)
        sigma2 = sse / df_resid if df_resid > 0 else 0.0

        se = np.full(p, np.nan)
        t_values = np.full(p, np.nan)
        p_values = np.ones(p)
        if df_resid > 0 and sigma2 > 0.0:
            # Covariance of beta-hat: sigma2 * (A'A)^-1; use pinv for stability.
            cov = sigma2 * np.linalg.pinv(A.T @ A)
            diag = np.clip(np.diag(cov)[1:], 0.0, None)
            with np.errstate(invalid="ignore", divide="ignore"):
                se = np.sqrt(diag)
                t_values = np.where(se > 0, beta_full[1:] / se, np.nan)
            finite = np.isfinite(t_values)
            # Two-sided t survival: ``scipy.stats.t.sf(x, df)`` is
            # ``stdtr(df, -x)`` behind ~60 µs of argument handling.
            p_values[finite] = 2.0 * stdtr(df_resid, -np.abs(t_values[finite]))
        elif sigma2 == 0.0 and df_resid > 0:
            # Perfect fit: every retained coefficient is maximally significant.
            p_values = np.zeros(p)

        return OlsFit(
            intercept=float(beta_full[0]),
            coef=beta_full[1:].copy(),
            sse=sse,
            sst=sst,
            r_squared=float(np.clip(r2, 0.0, 1.0)),
            sigma2=float(sigma2),
            se=se,
            t_values=t_values,
            p_values=p_values,
            df_resid=int(df_resid),
            n_obs=n,
            condition_number=self.condition_number,
            solver=self.solver,
        )


def solve_ols(X: np.ndarray, y: np.ndarray) -> OlsSolve:
    """The least-squares solve of :func:`fit_ols`, without its inference
    statistics."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n, p = X.shape
    if y.shape[0] != n:
        raise ValueError(f"X has {n} rows but y has {y.shape[0]}")
    if n == 0:
        raise ValueError("cannot fit on zero observations")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        # NaN/Inf inputs would yield NaN coefficients from every solver in
        # the chain; fail with the real diagnosis instead.
        raise NumericalError(
            "design matrix or response contains non-finite values (NaN/Inf)",
            cause="non-finite-input",
            context={"n_obs": n, "n_predictors": p},
        )

    A = _design(X)
    beta, rank, cond, solver = _solve_design(A, y)
    resid = y - A @ beta
    return OlsSolve(A=A, y=y, beta=beta, sse=float(resid @ resid), df_resid=n - rank,
                    condition_number=cond, solver=solver)


def partial_f_pvalue(fit_reduced: OlsFit | OlsSolve, fit_full: OlsFit | OlsSolve,
                     df_added: int = 1) -> float:
    """p-value of the partial F test comparing nested OLS fits.

    Tests whether the ``df_added`` extra predictors in ``fit_full``
    significantly reduce SSE relative to ``fit_reduced``. Returns 1.0 when
    the test is degenerate (no residual df, or no SSE improvement) and 0.0
    when the full model fits perfectly while the reduced one does not.
    """
    if df_added <= 0:
        raise ValueError(f"df_added must be >= 1, got {df_added}")
    improvement = fit_reduced.sse - fit_full.sse
    if fit_full.df_resid <= 0:
        return 1.0
    if fit_full.sse <= 0.0:
        return 0.0 if improvement > 0.0 else 1.0
    if improvement <= 0.0:
        return 1.0
    f_stat = (improvement / df_added) / (fit_full.sse / fit_full.df_resid)
    # The F survival function itself: ``scipy.stats.f.sf`` delegates to
    # ``fdtrc`` after ~60 µs of argument handling.
    return float(fdtrc(df_added, fit_full.df_resid, f_stat))
