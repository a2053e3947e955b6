"""Merge per-shard observability files into one service-wide view.

A running service scatters its telemetry by construction: every worker
shard appends to its own ``repro-trace/1`` JSONL file (single-writer, no
cross-process locking on the hot path) and flushes its own
``repro-metrics/1`` registry snapshot (stamped with ``shard``, ``pid``,
``t`` and ``final``) from the heartbeat path. This module is the read side
that puts the pieces back together:

* :func:`merge_timeline` — one causally-ordered timeline across every
  shard *and* the spool's own queue events (submit/lease/done/fail are
  synthesized into schema-valid ``repro-trace/1`` event records), keyed by
  the per-job ``trace_id`` the spool stamped at submission. Per-shard span
  ids are rebased so ids stay unique in the merged stream while
  parent/child links within a shard survive.
* :func:`read_shard_metrics` / :func:`aggregate_metrics` — sum counters,
  merge fixed-bucket histograms, and sum gauges across shard snapshots,
  keeping the per-shard breakdown alongside the totals in one more
  ``repro-metrics/1`` document. Snapshots are
  deduplicated by ``(shard, pid)`` with the newest winning, so a crash
  salvage that leaves one generation's snapshot under two names never
  double-counts.

Every reader here is torn-tail tolerant (:func:`~repro.obs.summarize.
read_jsonl_tolerant`): a SIGKILL'd shard tears its final line, it does not
poison the merged view. This module deliberately reads the spool log as
plain JSONL rather than importing :mod:`repro.service` — the obs layer
stays importable by every subsystem without cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.summarize import read_jsonl_tolerant, read_trace
from repro.obs.trace import TRACE_SCHEMA

__all__ = [
    "Timeline",
    "aggregate_metrics",
    "merge_timeline",
    "metrics_dir",
    "obs_dir",
    "read_shard_metrics",
    "read_shard_traces",
    "read_spool_events",
    "spool_timeline_records",
    "write_timeline",
]

#: Spool queue events that become timeline entries (others are internal).
_SPOOL_EVENT_NAMES = ("submit", "lease", "renew", "done", "fail")


def obs_dir(spool_root) -> Path:
    """Where a service's per-shard trace files live (``trace.<shard>.jsonl``)."""
    return Path(spool_root) / "obs"


def metrics_dir(spool_root) -> Path:
    """Where a service's per-shard metrics snapshots live (``<shard>.json``)."""
    return Path(spool_root) / "metrics"


def read_spool_events(spool_root) -> tuple[list[dict], int]:
    """The spool's raw event log, torn-tail tolerant, oldest first."""
    path = Path(spool_root) / "spool.jsonl"
    if not path.exists():
        return [], 0
    return read_jsonl_tolerant(path)


def read_shard_traces(spool_root) -> tuple[list[dict], int]:
    """Every shard's validated trace records, tagged and id-rebased.

    Each record gains a ``shard`` field (from its file name) and has its
    ``span_id``/``parent_id`` shifted by a per-shard offset: shard tracers
    allocate ids independently from 1, so rebasing keeps ids unique in the
    merged stream without breaking intra-shard parent/child links.
    Malformed lines (torn tails, schema violations) are counted, not fatal.
    """
    records: list[dict] = []
    malformed = 0
    offset = 0
    root = obs_dir(spool_root)
    if not root.is_dir():
        return [], 0
    for path in sorted(root.glob("trace.*.jsonl")):
        shard = path.name[len("trace."):-len(".jsonl")]
        parsed, bad = read_trace(path)
        malformed += bad
        top = offset
        for rec in parsed:
            rec = dict(rec)
            rec["shard"] = shard
            rec["span_id"] = int(rec["span_id"]) + offset
            if rec["parent_id"] is not None:
                rec["parent_id"] = int(rec["parent_id"]) + offset
            top = max(top, rec["span_id"])
            records.append(rec)
        offset = top
    return records, malformed


def spool_timeline_records(events: Iterable[dict],
                           next_id: int = 1) -> list[dict]:
    """Synthesize schema-valid trace events from spool queue events.

    ``submit``/``lease``/``renew``/``done``/``fail`` become ``kind="event"``
    records named ``spool.<ev>`` carrying the job's trace id, so the merged
    timeline shows the queue-side lifecycle interleaved with worker spans.
    Events without a wall-clock ``t`` (pre-plane spool logs) are skipped —
    an entry with no timestamp cannot be ordered.
    """
    out: list[dict] = []
    trace_ids: dict[str, str] = {}
    for ev in events:
        kind, jid = ev.get("ev"), ev.get("id")
        if kind not in _SPOOL_EVENT_NAMES or not jid:
            continue
        if kind == "submit" and ev.get("trace_id"):
            trace_ids[jid] = str(ev["trace_id"])
        t = ev.get("t")
        if t is None:
            continue
        attrs: dict[str, Any] = {"job_id": jid}
        if ev.get("worker"):
            attrs["worker"] = ev["worker"]
        error = None
        if kind == "fail":
            error = {"type": ev.get("error_type") or "ReproError",
                     "message": ev.get("message") or ""}
        out.append({
            "schema": TRACE_SCHEMA,
            "kind": "event",
            "span_id": next_id,
            "parent_id": None,
            "name": f"spool.{kind}",
            "t_wall": float(t),
            "t_start": 0.0,
            "duration_s": 0.0,
            "status": "error" if kind == "fail" else "ok",
            "error": error,
            "trace_id": trace_ids.get(jid, jid),
            "attrs": attrs,
            "shard": "spool",
        })
        next_id += 1
    return out


@dataclass(frozen=True)
class Timeline:
    """One merged, causally-ordered view of a service run."""

    records: tuple[dict, ...]
    shards: tuple[str, ...]
    n_spans: int
    n_spool_events: int
    n_malformed: int

    def trace_ids(self) -> set[str]:
        return {r["trace_id"] for r in self.records
                if r.get("trace_id") is not None}

    def for_trace(self, trace_id: str) -> list[dict]:
        """Every record of one distributed trace, in timeline order."""
        return [r for r in self.records if r.get("trace_id") == trace_id]

    def summary(self) -> str:
        return (f"{len(self.records)} records ({self.n_spans} spans, "
                f"{self.n_spool_events} spool events) from "
                f"{len(self.shards)} shard(s), {len(self.trace_ids())} "
                f"trace(s), {self.n_malformed} malformed line(s) skipped")


def merge_timeline(spool_root) -> Timeline:
    """Merge spool events and every shard's spans into one ordered timeline.

    Ordering is by wall-clock open time (ties broken by shard then span id)
    — the only clock the processes share. ``repro doctor`` checks the
    spool-vs-span clock skew that would make this ordering lie.
    """
    spool_events, bad_spool = read_spool_events(spool_root)
    shard_records, bad_traces = read_shard_traces(spool_root)
    next_id = max((r["span_id"] for r in shard_records), default=0) + 1
    synthesized = spool_timeline_records(spool_events, next_id=next_id)
    records = sorted(shard_records + synthesized,
                     key=lambda r: (r["t_wall"], r.get("shard", ""),
                                    r["span_id"]))
    shards = tuple(sorted({r["shard"] for r in shard_records}))
    return Timeline(
        records=tuple(records),
        shards=shards,
        n_spans=sum(1 for r in shard_records if r["kind"] == "span"),
        n_spool_events=len(synthesized),
        n_malformed=bad_spool + bad_traces,
    )


def write_timeline(timeline: Timeline, path) -> Path:
    """Persist a merged timeline as JSONL (one ``repro-trace/1`` line each)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for rec in timeline.records:
            fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
    return out


# -- shard metrics -----------------------------------------------------------

def read_shard_metrics(spool_root) -> tuple[list[dict], int]:
    """Every shard metrics snapshot, deduplicated by ``(shard, pid)``.

    The supervisor salvages a dead worker's last snapshot under a
    generation-suffixed name before the replacement overwrites the live
    one, so the same (shard, pid) snapshot can exist twice; the newest
    ``t`` wins and nothing is counted twice. A ``--metrics-file`` export
    dropped into the directory counts as a shard named after its file.
    Bare pre-plane snapshots (a raw registry dict with no ``schema``) are
    tolerated; a document with any other schema counts as unreadable.
    """
    root = metrics_dir(spool_root)
    if not root.is_dir():
        return [], 0
    docs: list[dict] = []
    unreadable = 0
    for path in sorted(root.glob("*.json")):
        try:
            doc = json.loads(path.read_bytes().decode("utf-8"))
            mtime = path.stat().st_mtime
        except (OSError, ValueError):
            unreadable += 1
            continue
        if not isinstance(doc, dict) or \
                doc.get("schema", METRICS_SCHEMA) != METRICS_SCHEMA:
            unreadable += 1
            continue
        if "schema" not in doc:  # bare registry snapshot, pre-plane worker
            doc = {"schema": METRICS_SCHEMA, "metrics": doc}
        docs.append({"shard": path.stem, "pid": None,
                     "t": mtime, "final": False, **doc})
    newest: dict[tuple, dict] = {}
    for doc in docs:
        key = (doc.get("shard"), doc.get("pid"))
        if key not in newest or float(doc.get("t") or 0.0) > \
                float(newest[key].get("t") or 0.0):
            newest[key] = doc
    ordered = sorted(newest.values(),
                     key=lambda d: (str(d.get("shard")), str(d.get("pid"))))
    return ordered, unreadable


def _merge_metric(into: dict, snap: dict, name: str,
                  conflicts: list[str]) -> None:
    """Fold one shard's metric snapshot into the running aggregate."""
    if into["type"] != snap["type"]:
        conflicts.append(name)
        return
    if into["type"] in ("counter", "gauge"):
        # Counters sum by definition; gauges sum too (queue depth, cache
        # entries — additive across shards), with per-shard truth preserved
        # in the aggregate's ``per_shard`` section.
        into["value"] = float(into["value"]) + float(snap["value"])
        return
    if list(into["buckets"]) != list(snap["buckets"]):
        conflicts.append(name)
        return
    into["counts"] = [a + b for a, b in zip(into["counts"], snap["counts"])]
    into["overflow"] += snap["overflow"]
    into["count"] += snap["count"]
    into["sum"] += snap["sum"]
    for k, pick in (("min", min), ("max", max)):
        values = [v for v in (into.get(k), snap.get(k)) if v is not None]
        into[k] = pick(values) if values else None
    into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0


def aggregate_metrics(snapshots: Iterable[dict]) -> dict[str, Any]:
    """Sum/merge shard snapshots into one service-wide metrics document.

    Returns a ``repro-metrics/1`` document with three more fields,
    ``{schema, shards, metrics, per_shard, conflicts}``, where
    ``metrics`` maps each name to a merged snapshot (counters/gauges
    summed, histogram buckets added elementwise) and ``conflicts`` names
    metrics whose shards disagreed on type or bucket boundaries (kept from
    the first shard seen, never silently mixed).
    """
    merged: dict[str, dict] = {}
    per_shard: dict[str, dict] = {}
    conflicts: list[str] = []
    shards: list[str] = []
    for doc in snapshots:
        shard = str(doc.get("shard") or "?")
        label = shard if doc.get("pid") is None else f"{shard}@{doc['pid']}"
        shards.append(label)
        metrics = doc.get("metrics") or {}
        per_shard[label] = metrics
        for name, snap in metrics.items():
            if not isinstance(snap, dict) or "type" not in snap:
                continue
            if name not in merged:
                merged[name] = json.loads(json.dumps(snap))  # deep copy
            else:
                _merge_metric(merged[name], snap, name, conflicts)
    return {
        "schema": METRICS_SCHEMA,
        "shards": shards,
        "metrics": {name: merged[name] for name in sorted(merged)},
        "per_shard": per_shard,
        "conflicts": sorted(set(conflicts)),
    }

