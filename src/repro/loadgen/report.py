"""Client-observed load reports: SLO-bucket latency, throughput, sheds.

The service-side SLO fold (:mod:`repro.obs.slo`) answers "how did the
*service* spend each job's time"; this module answers the complementary
client question — "what did the *submitter* experience" — from the
runner's per-request outcomes. Latencies land in the same fixed
:data:`~repro.obs.slo.SLO_BUCKETS`, so client-observed and service-side
percentiles are directly comparable (and mergeable) without rebinning.

A report is a schema-versioned JSON document (``repro-loadreport/1``):
outcome counts (done/failed/shed/timeout), error-type breakdown,
throughput, the latency percentile block, and the count of malformed
trace lines tolerated on the way in. :func:`render_report` turns it into
the ASCII form ``repro loadgen report`` prints — and is required to
render *any* report, including one with zero completed requests or a
100%-shed run, without raising.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.obs.metrics import Histogram
from repro.obs.slo import SLO_BUCKETS
from repro.util import durable
from repro.util.tables import format_kv, format_table
from repro.loadgen.runner import OUTCOMES, LoadResult
from repro.loadgen.workloads import WorkloadSpec

__all__ = [
    "LOADREPORT_SCHEMA",
    "build_report",
    "latency_histogram",
    "read_report",
    "render_report",
    "write_report",
]

LOADREPORT_SCHEMA = "repro-loadreport/1"


def latency_histogram(result: LoadResult) -> Histogram:
    """Completed-request latencies in the shared SLO buckets."""
    hist = Histogram("loadgen.client_e2e", buckets=SLO_BUCKETS)
    for latency in result.latencies():
        hist.observe(max(0.0, latency))
    return hist


def build_report(result: LoadResult, *,
                 workload: WorkloadSpec | dict | None = None,
                 source: str = "run",
                 malformed_lines: int = 0) -> dict[str, Any]:
    """Fold one run into the ``repro-loadreport/1`` document."""
    counts = result.counts()
    errors: dict[str, int] = {}
    for o in result.outcomes:
        if o.error_type:
            errors[o.error_type] = errors.get(o.error_type, 0) + 1
    wl = workload.as_dict() if isinstance(workload, WorkloadSpec) else workload
    return {
        "schema": LOADREPORT_SCHEMA,
        "source": source,
        "workload": wl,
        "n_requests": len(result.outcomes),
        "outcomes": {name: counts.get(name, 0) for name in OUTCOMES},
        "errors": dict(sorted(errors.items())),
        "wall_s": result.wall_s,
        "throughput_rps": (counts.get("done", 0) / result.wall_s
                           if result.wall_s > 0 else 0.0),
        "latency": latency_histogram(result).summary(),
        "malformed_lines": int(malformed_lines),
    }


def write_report(path: str | os.PathLike[str], doc: dict[str, Any]) -> Path:
    out = Path(path)
    durable.replace_file(
        out, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(),
        sync=False)
    return out


def read_report(path: str | os.PathLike[str]) -> dict[str, Any]:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"unreadable load report {p}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != LOADREPORT_SCHEMA:
        raise ReproError(
            f"{p} is not a {LOADREPORT_SCHEMA} document "
            f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})")
    return doc


def render_report(doc: dict[str, Any], title: str | None = None) -> str:
    """ASCII form of a load report; total outcomes, never a raise.

    Zero completed requests (timeout-only runs, 100%-shed overload) render
    a counts table and an explicit "(no completed requests)" line instead
    of a latency block — the report is most needed exactly when the run
    went badly.
    """
    header = title or "load report"
    wl = doc.get("workload") or {}
    pairs: dict[str, Any] = {
        "source": doc.get("source", "?"),
        "requests": doc.get("n_requests", 0),
        "wall_s": float(doc.get("wall_s", 0.0)),
        "throughput_rps": float(doc.get("throughput_rps", 0.0)),
    }
    if wl:
        pairs["workload"] = (f"{wl.get('workload', '?')}/"
                             f"{wl.get('pacing', '?')} seed={wl.get('seed')}")
    malformed = int(doc.get("malformed_lines", 0) or 0)
    if malformed:
        pairs["malformed_lines"] = malformed
    lines = [header, format_kv(pairs)]
    outcome_counts = doc.get("outcomes") or {}
    lines.append(format_table(
        ["outcome", "count"],
        [(name, int(outcome_counts.get(name, 0))) for name in OUTCOMES],
        title="outcomes"))
    errors = doc.get("errors") or {}
    if errors:
        lines.append(format_table(
            ["error_type", "count"],
            sorted(errors.items()), title="errors"))
    lat = doc.get("latency") or {}
    if int(lat.get("count", 0) or 0) > 0:
        lines.append(format_table(
            ["count", "p50_s", "p95_s", "p99_s", "mean_s", "max_s"],
            [(int(lat["count"]), float(lat.get("p50") or 0.0),
              float(lat.get("p95") or 0.0), float(lat.get("p99") or 0.0),
              float(lat.get("mean") or 0.0), float(lat.get("max") or 0.0))],
            title="client-observed latency", ndigits=4))
    else:
        lines.append("(no completed requests)")
    return "\n\n".join(lines)
