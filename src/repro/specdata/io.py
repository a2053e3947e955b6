"""CSV import/export for SPEC announcement records.

The synthetic archive is a stand-in for the SPEC website's public data; a
user who scrapes the real archive can load it through the same schema
(:func:`repro.robust.read_records_checked`, with row-level quarantine) and
run every workflow unchanged. Conversely, exporting the synthetic records
documents exactly what the models were trained on.

Format: one row per announcement. Columns are the provenance fields
(``family, year, quarter``), the 32 parameters in schema order, the two
ratings, and one ``ratio:<app>`` column per published per-application
ratio (omitted when a record carries none).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from repro.ml.dataset import ColumnRole
from repro.specdata.schema import PARAMETER_FIELDS, SystemRecord

__all__ = ["write_records_csv", "parse_record_row", "REQUIRED_COLUMNS"]

_PROVENANCE = ("family", "year", "quarter")
_RESULTS = ("specint_rate", "specfp_rate")

#: Columns every record CSV must carry (provenance + 32 parameters + ratings).
REQUIRED_COLUMNS: tuple[str, ...] = (
    _PROVENANCE + tuple(n for n, _ in PARAMETER_FIELDS) + _RESULTS
)


def _header(records: Sequence[SystemRecord]) -> list[str]:
    cols = list(_PROVENANCE) + [name for name, _ in PARAMETER_FIELDS] + list(_RESULTS)
    app_names = [n for n, _ in records[0].app_ratios]
    cols.extend(f"ratio:{n}" for n in app_names)
    return cols


def write_records_csv(records: Sequence[SystemRecord], path: str | Path) -> None:
    """Write announcement records to ``path`` (overwrites)."""
    if not records:
        raise ValueError("no records to write")
    header = _header(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row: list[object] = [r.family, r.year, r.quarter]
            row.extend(getattr(r, name) for name, _ in PARAMETER_FIELDS)
            row.extend([r.specint_rate, r.specfp_rate])
            row.extend(v for _, v in r.app_ratios)
            writer.writerow(row)


def _parse(value: str, role: ColumnRole):
    if role is ColumnRole.NUMERIC:
        return float(value)
    if role is ColumnRole.FLAG:
        if value in ("True", "true", "1"):
            return True
        if value in ("False", "false", "0"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return value


_INT_FIELDS = frozenset({"total_cores", "total_chips", "cores_per_chip", "l4_shared_count"})


def parse_record_row(row: dict, ratio_cols: Sequence[str] = ()) -> SystemRecord:
    """Build one :class:`SystemRecord` from a CSV row dict.

    Raises ``ValueError`` (bad value, schema violation) or ``KeyError``
    (missing column) on a malformed row — the unit the ingest guards in
    :mod:`repro.robust.guards` catch to quarantine a single row instead of
    aborting the whole file.
    """
    kwargs: dict = {
        "family": row["family"],
        "year": int(row["year"]),
        "quarter": int(row["quarter"]),
        "specint_rate": float(row["specint_rate"]),
        "specfp_rate": float(row["specfp_rate"]),
    }
    for name, role in PARAMETER_FIELDS:
        value = _parse(row[name], role)
        if name in _INT_FIELDS:
            value = int(value)
        kwargs[name] = value
    if ratio_cols:
        kwargs["app_ratios"] = tuple(
            (c[len("ratio:"):], float(row[c])) for c in ratio_cols
        )
    return SystemRecord(**kwargs)
