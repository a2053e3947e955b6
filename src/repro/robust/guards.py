"""Ingest guards: schema/range validation and row-level quarantine.

Hand-entered SPEC announcement archives and externally produced design-space
responses are the two places dirty data enters the pipeline. A single NaN
rating or a conflicting duplicate row would not crash the fitters — the
:class:`~repro.ml.dataset.Dataset` constructor catches NaN columns, but an
out-of-range year or a pair of contradictory announcements sails straight
into the models. The guards here sit at the ingest boundary and, instead of
the previous all-or-nothing behaviour, *quarantine* bad rows into a
structured report:

* clean rows flow on unchanged (bit-identical to the unguarded path);
* quarantined rows are recorded with a machine-readable reason slug,
  counted under ``robust.ingest.quarantined``, and traced as a
  ``quarantine`` event when tracing is on;
* only when the quarantine fraction exceeds the caller's tolerance (or
  nothing survives) does the run abort, with a typed
  :class:`~repro.errors.DataIntegrityError` carrying the full report.

The row-level checks reuse :mod:`repro.util.validation` — the same
``require_finite`` the dataset layer uses — so one value produces one error
text no matter where it is caught.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import DataIntegrityError
from repro.obs import annotate as _annotate
from repro.obs import phase as _obs_phase
from repro.obs.metrics import default_registry as _metrics
from repro.specdata.schema import PARAMETER_FIELDS, SystemRecord
from repro.util.validation import nonfinite_count

__all__ = [
    "QUARANTINE_SCHEMA",
    "QuarantinedRow",
    "QuarantineReport",
    "validate_records",
    "read_records_checked",
]

#: Schema tag stamped on every JSONL quarantine record.
QUARANTINE_SCHEMA = "repro-quarantine/1"

#: Announcement years accepted as plausible (SPEC CPU2000 era, generously).
_YEAR_RANGE = (1995, 2030)

_NUMERIC_PARAMS = tuple(n for n, role in PARAMETER_FIELDS if role.value == "numeric")


@dataclass(frozen=True)
class QuarantinedRow:
    """One rejected input row: where it was, why, and what was wrong."""

    index: int    # 0-based data-row position in the source
    reason: str   # machine-readable slug, e.g. "non-finite" | "parse-error"
    detail: str   # human-readable specifics

    def summary(self) -> str:
        return f"row {self.index} [{self.reason}]: {self.detail}"


@dataclass
class QuarantineReport:
    """Structured outcome of one guarded ingest.

    ``rows`` holds one entry per quarantined row; clean ingests carry an
    empty list. The report serializes to JSONL (one header record plus one
    record per quarantined row) so chaos runs and production pipelines can
    archive exactly what was rejected and why.
    """

    source: str
    n_total: int
    rows: list[QuarantinedRow] = field(default_factory=list)

    @property
    def n_quarantined(self) -> int:
        return len(self.rows)

    @property
    def n_clean(self) -> int:
        return self.n_total - len(self.rows)

    @property
    def ok(self) -> bool:
        """True when nothing was quarantined."""
        return not self.rows

    @property
    def fraction_quarantined(self) -> float:
        return len(self.rows) / self.n_total if self.n_total else 0.0

    def reasons(self) -> dict[str, int]:
        """Quarantine counts per reason slug (sorted for stable output)."""
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.reason] = out.get(row.reason, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> str:
        head = (f"{self.source}: {self.n_clean}/{self.n_total} rows clean, "
                f"{self.n_quarantined} quarantined")
        if not self.rows:
            return head
        per_reason = ", ".join(f"{k}={v}" for k, v in self.reasons().items())
        return f"{head} ({per_reason}); first: {self.rows[0].summary()}"

    def write_jsonl(self, path: str | Path) -> None:
        """Append the report to ``path`` as JSONL (header + one row each)."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "schema": QUARANTINE_SCHEMA,
                "kind": "report",
                "source": self.source,
                "n_total": self.n_total,
                "n_quarantined": self.n_quarantined,
                "reasons": self.reasons(),
            }, sort_keys=True) + "\n")
            for row in self.rows:
                fh.write(json.dumps({
                    "schema": QUARANTINE_SCHEMA,
                    "kind": "row",
                    "source": self.source,
                    **asdict(row),
                }, sort_keys=True) + "\n")


def _record_issues(record: SystemRecord) -> list[tuple[str, str]]:
    """Integrity issues of one (successfully constructed) record.

    ``SystemRecord.__post_init__`` already rejects structurally impossible
    values, but NaN/Inf slip through every ``<=`` comparison and plausible
    ranges (years, rating magnitudes) are not its business — they are
    checked here, at the ingest boundary.
    """
    issues: list[tuple[str, str]] = []
    numerics = np.array([getattr(record, n) for n in _NUMERIC_PARAMS], dtype=np.float64)
    n_bad = nonfinite_count(numerics)
    if n_bad:
        bad_names = [n for n, v in zip(_NUMERIC_PARAMS, numerics) if not math.isfinite(v)]
        issues.append(("non-finite", f"{n_bad} non-finite parameter(s): {bad_names}"))
    for rating in ("specint_rate", "specfp_rate"):
        value = float(getattr(record, rating))
        if not math.isfinite(value):
            issues.append(("non-finite", f"{rating} is {value!r}"))
        elif not (0.0 < value < 1e7):
            issues.append(("out-of-range", f"{rating}={value!r} outside (0, 1e7)"))
    if any(not math.isfinite(v) for _, v in record.app_ratios):
        issues.append(("non-finite", "app ratio is NaN/Inf"))
    if not (_YEAR_RANGE[0] <= record.year <= _YEAR_RANGE[1]):
        issues.append(("out-of-range",
                       f"year={record.year} outside {list(_YEAR_RANGE)}"))
    return issues


def _record_key(record: SystemRecord) -> tuple:
    """Identity of an announcement: provenance plus all 32 parameters."""
    return (record.family, record.year, record.quarter) + tuple(
        getattr(record, name) for name, _ in PARAMETER_FIELDS
    )


def _finish(
    report: QuarantineReport,
    clean: list,
    max_quarantine_fraction: float,
) -> None:
    """Shared abort/record logic for every guarded ingest."""
    if report.rows:
        _metrics().counter("robust.ingest.quarantined").inc(report.n_quarantined)
        _annotate("quarantine", source=report.source, n_total=report.n_total,
                  n_quarantined=report.n_quarantined, reasons=report.reasons())
    if report.n_total and not clean:
        raise DataIntegrityError(
            f"{report.source}: every row failed validation — {report.summary()}",
            report=report,
        )
    if report.fraction_quarantined > max_quarantine_fraction:
        raise DataIntegrityError(
            f"{report.source}: quarantined fraction "
            f"{report.fraction_quarantined:.1%} exceeds tolerance "
            f"{max_quarantine_fraction:.1%} — {report.summary()}",
            report=report,
        )


def _validate_record_rows(
    records: Sequence[SystemRecord],
) -> tuple[list[SystemRecord], list[QuarantinedRow]]:
    """Row checks only (no abort policy, no metrics): (clean, quarantined)."""
    clean: list[SystemRecord] = []
    quarantined: list[QuarantinedRow] = []
    seen: dict[tuple, tuple[float, float]] = {}
    for i, record in enumerate(records):
        issues = _record_issues(record)
        if not issues:
            key = _record_key(record)
            ratings = (record.specint_rate, record.specfp_rate)
            prior = seen.get(key)
            if prior is not None and prior != ratings:
                issues.append((
                    "conflicting-duplicate",
                    f"same announcement as an earlier row but ratings "
                    f"{ratings} != {prior}",
                ))
            elif prior is None:
                seen[key] = ratings
        if issues:
            reason, detail = issues[0]
            if len(issues) > 1:
                detail += f" (+{len(issues) - 1} more issue(s))"
            quarantined.append(QuarantinedRow(index=i, reason=reason, detail=detail))
        else:
            clean.append(record)
    return clean, quarantined


def validate_records(
    records: Sequence[SystemRecord],
    source: str = "<records>",
    max_quarantine_fraction: float = 0.5,
) -> tuple[list[SystemRecord], QuarantineReport]:
    """Validate announcement records; quarantine the bad ones.

    Checks every record for NaN/Inf parameters and ratings, implausible
    ranges, and *conflicting duplicates* — a row whose provenance and all
    32 parameters match an earlier row but whose ratings disagree (two
    contradictory entries for one announcement; the first occurrence wins,
    later conflicts are quarantined). Exact duplicates (same ratings too)
    pass through: they are redundant, not contradictory.

    Returns ``(clean_records, report)``; raises
    :class:`~repro.errors.DataIntegrityError` when nothing survives or the
    quarantined fraction exceeds ``max_quarantine_fraction``.
    """
    report = QuarantineReport(source=source, n_total=len(records))
    with _obs_phase("ingest-validate", source=source, n_rows=len(records)):
        clean, report.rows = _validate_record_rows(records)
    _finish(report, clean, max_quarantine_fraction)
    return clean, report


def read_records_checked(
    path: str | Path,
    report_path: str | Path | None = None,
    max_quarantine_fraction: float = 0.5,
) -> tuple[list[SystemRecord], QuarantineReport]:
    """Read a records CSV with row-level quarantine instead of all-or-nothing.

    Reads what :func:`repro.specdata.io.write_records_csv` writes. Rows
    that fail to parse (corrupt bytes, wrong dtypes, schema violations)
    are quarantined with reason ``parse-error``,
    and the surviving records then pass through :func:`validate_records`
    (non-finite, out-of-range, conflicting-duplicate checks) under the same
    report. A missing/empty file or absent required columns is not a
    row-level problem and raises :class:`~repro.errors.DataIntegrityError`
    immediately.

    When ``report_path`` is given the report is appended there as JSONL,
    whether or not anything was quarantined.
    """
    import csv

    from repro.specdata.io import REQUIRED_COLUMNS, parse_record_row

    source = str(path)
    report = QuarantineReport(source=source, n_total=0)
    parsed: list[tuple[int, SystemRecord]] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataIntegrityError(f"{source}: cannot read ({exc})") from exc
    with fh, _obs_phase("ingest-read", source=source):
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataIntegrityError(f"{source}: empty CSV")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataIntegrityError(f"{source}: missing columns {missing}")
        ratio_cols = [c for c in reader.fieldnames if c.startswith("ratio:")]
        for i, row in enumerate(reader):
            report.n_total += 1
            try:
                parsed.append((i, parse_record_row(row, ratio_cols)))
            except (ValueError, KeyError, TypeError) as exc:
                report.rows.append(QuarantinedRow(
                    index=i, reason="parse-error",
                    detail=f"{type(exc).__name__}: {exc}",
                ))
    if report.n_total == 0:
        raise DataIntegrityError(f"{source}: no data rows")

    clean, value_rows = _validate_record_rows([r for _, r in parsed])
    # Re-key the value-check indices back to original CSV row positions.
    for row in value_rows:
        report.rows.append(QuarantinedRow(
            index=parsed[row.index][0], reason=row.reason, detail=row.detail,
        ))
    report.rows.sort(key=lambda r: r.index)
    try:
        _finish(report, clean, max_quarantine_fraction)
    finally:
        if report_path is not None:
            report.write_jsonl(report_path)
    return clean, report
