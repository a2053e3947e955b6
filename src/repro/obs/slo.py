"""Service-level latency objectives folded from spool events + worker spans.

Four fixed-bucket histograms per job kind answer the operator questions the
raw telemetry only implies:

* ``queue_wait``      — submit to first lease: how long work sat pending.
* ``lease_to_start``  — lease to the execute span opening: dispatch and
  process-startup overhead inside the worker.
* ``execute``         — each ``job.execute`` span's duration (one sample
  per attempt, so a SIGKILL'd-and-retried job contributes every attempt).
* ``e2e``             — submit to the terminal ``done`` event: what the
  submitting client actually experienced.

Everything folds from data already on disk — spool event timestamps and
per-shard trace files — so SLOs are computed after the fact, cost nothing
on the serving hot path, and stay available for crashed runs. Bucket
boundaries are fixed (:data:`SLO_BUCKETS`) so histograms merge across
shards and across runs without rebinning (see DESIGN §13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.aggregate import read_shard_traces, read_spool_events
from repro.obs.metrics import Histogram
from repro.util.tables import format_table

__all__ = [
    "EXECUTE_SPAN",
    "SLO_BUCKETS",
    "SLO_METRICS",
    "JobTimings",
    "compute_slo",
    "compute_slo_for_spool",
    "fold_job_timings",
    "render_slo_report",
    "slo_snapshot",
]

#: Fixed bucket upper bounds (seconds) for every SLO histogram. Log-spaced
#: 1ms..10min: job latencies in this service span fast cached fits (ms) to
#: full-space sweeps (minutes). Fixed boundaries are the merge contract —
#: never change them without bumping the aggregate schema.
SLO_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
               1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0)

#: The four per-kind latency decompositions, in reporting order.
SLO_METRICS = ("queue_wait", "lease_to_start", "execute", "e2e")

#: The worker span name that brackets one job execution attempt.
EXECUTE_SPAN = "job.execute"


@dataclass
class JobTimings:
    """Wall-clock milestones of one job, folded from its spool events."""

    job_id: str
    kind: str
    trace_id: str
    submit_t: float | None = None
    lease_ts: list[float] = field(default_factory=list)
    terminal: str | None = None
    terminal_t: float | None = None


def fold_job_timings(events: Iterable[dict]) -> dict[str, JobTimings]:
    """Fold spool events into per-job timing milestones.

    Mirrors the spool's own state fold where it matters for latency
    accounting: the first terminal event wins, and resubmitting a *failed*
    job re-opens it on a fresh submission clock (its old leases and
    terminal no longer describe the new attempt). Events written before
    the observability plane (no ``t``) contribute nothing rather than a
    fake zero timestamp.
    """
    jobs: dict[str, JobTimings] = {}
    for ev in events:
        kind, jid = ev.get("ev"), ev.get("id")
        if not jid:
            continue
        jt = jobs.get(jid)
        if kind == "submit":
            if jt is None:
                jobs[jid] = JobTimings(
                    job_id=jid,
                    kind=str((ev.get("spec") or {}).get("kind", "unknown")),
                    trace_id=str(ev.get("trace_id") or jid),
                    submit_t=ev.get("t"))
            elif jt.terminal == "fail":
                # Resubmission restarts the submission clock (PR 5 resubmit
                # semantics). A pre-plane resubmit event (no ``t``) must
                # clear the old timestamp, not inherit it: measuring the new
                # attempt's queue_wait from the *original* submission would
                # charge it the entire failed first attempt.
                jt.submit_t = ev.get("t")
                jt.lease_ts.clear()
                jt.terminal = jt.terminal_t = None
        elif jt is None:
            continue
        elif kind == "lease":
            if ev.get("t") is not None and jt.terminal is None:
                jt.lease_ts.append(float(ev["t"]))
        elif kind in ("done", "fail") and jt.terminal is None:
            jt.terminal = kind
            jt.terminal_t = ev.get("t")
    return jobs


def _hist(slos: dict[str, dict[str, Histogram]], kind: str,
          metric: str) -> Histogram:
    per_kind = slos.setdefault(kind, {})
    if metric not in per_kind:
        per_kind[metric] = Histogram(f"slo.{kind}.{metric}",
                                     buckets=SLO_BUCKETS)
    return per_kind[metric]


def compute_slo(events: Iterable[dict],
                trace_records: Iterable[dict]) -> dict[str, dict[str, Histogram]]:
    """Fold spool events + execute spans into per-kind SLO histograms.

    Returns ``{job_kind: {metric: Histogram}}``. Spans are matched to jobs
    by ``trace_id``; ``lease_to_start`` pairs each execute span with the
    latest lease at or before the span opened (clamped at zero — sub-second
    clock skew between processes must not manufacture negative latency;
    ``repro doctor`` flags skew large enough to matter).
    """
    timings = fold_job_timings(events)
    by_trace = {jt.trace_id: jt for jt in timings.values()}
    slos: dict[str, dict[str, Histogram]] = {}
    for jt in timings.values():
        if jt.submit_t is not None and jt.lease_ts:
            _hist(slos, jt.kind, "queue_wait").observe(
                max(0.0, min(jt.lease_ts) - jt.submit_t))
        if jt.terminal == "done" and jt.terminal_t is not None \
                and jt.submit_t is not None:
            _hist(slos, jt.kind, "e2e").observe(
                max(0.0, jt.terminal_t - jt.submit_t))
    for rec in trace_records:
        if rec.get("kind") != "span" or rec.get("name") != EXECUTE_SPAN:
            continue
        jt = by_trace.get(rec.get("trace_id"))
        kind = jt.kind if jt is not None else \
            str((rec.get("attrs") or {}).get("job_kind", "unknown"))
        _hist(slos, kind, "execute").observe(
            max(0.0, float(rec.get("duration_s", 0.0))))
        if jt is not None and jt.lease_ts:
            t_open = float(rec.get("t_wall", 0.0))
            prior = [t for t in jt.lease_ts if t <= t_open]
            if prior:
                _hist(slos, kind, "lease_to_start").observe(
                    max(0.0, t_open - max(prior)))
    return slos


def compute_slo_for_spool(spool_root) -> dict[str, dict[str, Histogram]]:
    """One-call SLO fold over a spool directory's log and shard traces."""
    events, _ = read_spool_events(spool_root)
    spans, _ = read_shard_traces(spool_root)
    return compute_slo(events, spans)


def slo_snapshot(slos: dict[str, dict[str, Histogram]]) -> dict[str, dict]:
    """JSON-friendly ``{kind: {metric: {count, p50, p95, p99, mean, max}}}``."""
    out: dict[str, dict] = {}
    for kind in sorted(slos):
        out[kind] = {}
        for metric in SLO_METRICS:
            hist = slos[kind].get(metric)
            if hist is not None:
                out[kind][metric] = hist.summary()
    return out


def render_slo_report(slos: dict[str, dict[str, Histogram]],
                      title: str | None = None) -> str:
    """ASCII SLO table: one row per (job kind, metric), percentiles in s."""
    header = title or "SLO report"
    snap = slo_snapshot(slos)
    rows = []
    for kind in sorted(snap):
        for metric in SLO_METRICS:
            cell = snap[kind].get(metric)
            if cell is None:
                continue
            rows.append((kind, metric, cell["count"], cell["p50"],
                         cell["p95"], cell["p99"], cell["mean"],
                         cell["max"] if cell["max"] is not None else 0.0))
    if not rows:
        return f"{header}\n(no completed jobs to report)"
    table = format_table(
        ["kind", "metric", "count", "p50_s", "p95_s", "p99_s", "mean_s",
         "max_s"],
        rows, ndigits=4)
    return f"{header}\n{table}"
