"""Chronological predictive modeling (paper Figure 1b, §4.3).

Train every candidate model on the announcements of year *Y* and predict
the ratings of the systems announced in year *Y+1* — "we used the published
results in 2005 to predict the performance of the systems that were built
and reported in 2006". Figures 7-8 plot, per model, the mean (circle) and
standard deviation (error bar) of the percentage errors on the future
year; Table 2 reports the best model per family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.models import fit_and_predict
from repro.errors import DataIntegrityError
from repro.ml.dataset import Dataset
from repro.ml.metrics import ErrorSummary, summarize_errors
from repro.ml.selection import ErrorEstimate, ModelBuilder
from repro.obs import phase as _obs_phase
from repro.parallel.executor import Executor, SerialExecutor
from repro.specdata.generator import generate_family_records
from repro.specdata.schema import SystemRecord, records_to_dataset

if TYPE_CHECKING:  # import cycle: repro.robust.ladder imports core.models
    from repro.robust.ladder import DegradationLadder

__all__ = ["ChronologicalResult", "run_chronological", "run_rolling_chronological", "chronological_datasets"]


@dataclass(frozen=True)
class ChronologicalResult:
    """Per-model future-year errors for one family."""

    family: str
    train_year: int
    test_year: int
    n_train: int
    n_test: int
    errors: Mapping[str, ErrorSummary]       # per-model test errors
    estimates: Mapping[str, ErrorEstimate]   # per-model CV estimates on train
    #: requested label -> actually deployed label; populated only when a
    #: degradation ladder handled the fits (empty mapping otherwise).
    deployed: Mapping[str, str] = field(default_factory=dict)

    def degraded_labels(self) -> dict[str, str]:
        """Labels whose deployment differs from the request (ladder walks)."""
        return {k: v for k, v in self.deployed.items() if k != v}

    @property
    def best_label(self) -> str:
        """Model with the lowest mean future-year error (Table 2's winner)."""
        return min(self.errors, key=lambda k: self.errors[k].mean)

    @property
    def best_error(self) -> float:
        return self.errors[self.best_label].mean

    def mean_errors(self) -> dict[str, float]:
        return {k: s.mean for k, s in self.errors.items()}


def chronological_datasets(
    family: str,
    train_year: int = 2005,
    test_year: int = 2006,
    seed: int = 0,
    target: str = "specint_rate",
    records: Sequence[SystemRecord] | None = None,
) -> tuple[Dataset, Dataset]:
    """Build the (train, test) datasets for one family's year pair.

    ``records`` lets callers supply a pre-generated archive; otherwise the
    family's records are generated from ``seed``.
    """
    recs = list(records) if records is not None else generate_family_records(family, seed=seed)
    train = [r for r in recs if r.year == train_year]
    test = [r for r in recs if r.year == test_year]
    # DataIntegrityError subclasses ValueError, so legacy callers that
    # catch ValueError keep working while the CLI gets a typed exit code.
    if not train:
        raise DataIntegrityError(
            f"{family}: no records in training year {train_year}")
    if not test:
        raise DataIntegrityError(
            f"{family}: no records in test year {test_year}")
    return records_to_dataset(train, target), records_to_dataset(test, target)


def run_chronological(
    family: str,
    builders: Mapping[str, ModelBuilder],
    train_year: int = 2005,
    test_year: int = 2006,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    n_cv_reps: int = 5,
    target: str = "specint_rate",
    records: Sequence[SystemRecord] | None = None,
    executor: Executor | None = None,
    ladder: "DegradationLadder | None" = None,
) -> ChronologicalResult:
    """Run the Figure-1b workflow for one family.

    Every candidate trains on the ``train_year`` announcements; errors are
    measured on ``test_year``. CV estimates on the training year are also
    computed (the paper uses them to pick the deployment model before the
    future data exists). ``executor`` runs each whole holdout estimate as
    one task without changing any number (shared randomness stays in this
    driver). With a
    ``ladder``, numerical failures and gate rejections degrade each model
    down the fallback chain instead of aborting the family; clean fits are
    bit-identical to a ladder-less run.
    """
    if not builders:
        raise ValueError("no model builders given")
    if rng is None:
        rng = np.random.default_rng(seed)
    train, test = chronological_datasets(
        family, train_year, test_year, seed=seed, target=target, records=records
    )
    if train.n_records < 2:
        raise DataIntegrityError(
            f"{family}: training year {train_year} has {train.n_records} "
            f"record(s); at least 2 are required for holdout estimation")
    errors: dict[str, ErrorSummary] = {}
    estimates: dict[str, ErrorEstimate] = {}
    deployed: dict[str, str] = {}
    with _obs_phase("chronological", family=family, train_year=train_year,
                    test_year=test_year, n_models=len(builders)):
        for label, estimate, predictions, rung in fit_and_predict(
                builders, train, test, rng, n_cv_reps, executor, ladder):
            estimates[label] = estimate
            if rung is not None:
                deployed[label] = rung
            errors[label] = summarize_errors(predictions, test.target)
    return ChronologicalResult(
        family=family,
        train_year=train_year,
        test_year=test_year,
        n_train=train.n_records,
        n_test=test.n_records,
        errors=errors,
        estimates=estimates,
        deployed=deployed,
    )


def _run_year_pair(args: tuple) -> ChronologicalResult:
    """One rolling fold (module-level so pairs can cross process borders)."""
    family, builders, y0, y1, seed, n_cv_reps, target, recs = args
    return run_chronological(
        family, builders, y0, y1, seed=seed,
        rng=np.random.default_rng((seed, y0)),
        n_cv_reps=n_cv_reps, target=target, records=recs,
    )


def run_rolling_chronological(
    family: str,
    builders: Mapping[str, ModelBuilder],
    seed: int = 0,
    n_cv_reps: int = 5,
    target: str = "specint_rate",
    records: Sequence[SystemRecord] | None = None,
    executor: Executor | None = None,
) -> list[ChronologicalResult]:
    """Rolling-origin evaluation: every consecutive year pair in the archive.

    The paper evaluates one fold (2005 -> 2006); rolling over every
    adjacent pair (2003 -> 2004, 2004 -> 2005, ...) shows whether the
    chronological findings are an artifact of the chosen year. Years with
    fewer than eight training records are skipped (too sparse for the
    5x50% holdout estimation to mean anything).

    Each fold derives its own RNG from ``(seed, year)``, so fanning the
    folds out over an ``executor`` is bit-identical to the serial loop.
    """
    recs = list(records) if records is not None else generate_family_records(family, seed=seed)
    years = sorted({r.year for r in recs})
    tasks = [
        (family, builders, y0, y1, seed, n_cv_reps, target, recs)
        for y0, y1 in zip(years[:-1], years[1:])
        if sum(r.year == y0 for r in recs) >= 8
    ]
    if not tasks:
        raise ValueError(f"{family}: no usable consecutive year pairs")
    if executor is None:
        executor = SerialExecutor()
    return executor.map(_run_year_pair, tasks)
