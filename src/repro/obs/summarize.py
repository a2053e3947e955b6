"""Aggregate a trace JSONL stream into a per-phase time/error breakdown.

``repro obs summarize trace.jsonl`` renders, for each distinct span name,
how many times the phase ran, how much wall-clock it consumed in total, its
mean/min/max duration, and how many spans ended in error — the first
question every perf or reliability investigation asks of a run. Spans that
carry a ``model`` attribute are grouped per model too, as ``name[model]``
(``ml.holdout[NN-E]``), so a split shows which model spent the time.

Malformed lines are tolerated (a crashed run can tear its final write, just
like a checkpoint journal) but *counted*, so silent corruption is visible in
the summary header. Tolerance extends to the bytes layer: a SIGKILL'd shard
can tear a line mid-UTF-8-sequence, so files are read as bytes and decoded
per line — an undecodable or unparsable line is a counted skip
(``obs.reader.malformed_lines``), never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.metrics import default_registry as _metrics
from repro.obs.trace import validate_record
from repro.util.durable import read_lines
from repro.util.tables import format_table

__all__ = ["PhaseSummary", "TraceSummary", "read_jsonl_tolerant", "read_trace",
           "summarize_trace", "render_summary", "summarize_file", "phase_rows"]


def read_jsonl_tolerant(path) -> tuple[list[dict], int]:
    """Parse a JSONL file, skipping (and counting) lines a crash mangled.

    The writers this reads after (the tracer, the spool log) append whole
    lines, so a SIGKILL'd process leaves at most torn or byte-mangled
    lines. Reading happens at the bytes layer: each line decodes and parses
    independently, and every failure — bad UTF-8, truncated JSON, a
    non-object line — is a counted skip mirrored into the
    ``obs.reader.malformed_lines`` counter.
    The line classification is :func:`repro.util.durable.read_lines`, the
    reader :mod:`repro.service.spool` applies to its own log.
    """
    log = read_lines(path)
    records = [record for _, record in log.records]
    malformed = len(log.bad) + log.torn
    if malformed:
        _metrics().counter("obs.reader.malformed_lines").inc(malformed)
    return records, malformed


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregate timings for every span sharing one name (and model)."""

    name: str
    count: int
    total_s: float
    mean_s: float
    min_s: float
    max_s: float
    errors: int
    model: str | None = None

    @property
    def label(self) -> str:
        """``name``, or ``name[model]`` for one model's spans."""
        return self.name if self.model is None else f"{self.name}[{self.model}]"


@dataclass(frozen=True)
class TraceSummary:
    """Everything the summarize command reports for one trace file."""

    phases: tuple[PhaseSummary, ...]
    n_spans: int
    n_events: int
    n_malformed: int

    def phase(self, label: str) -> PhaseSummary:
        """The phase rendered as ``label`` (``name`` or ``name[model]``)."""
        for p in self.phases:
            if p.label == label:
                return p
        raise KeyError(f"no phase {label!r} in trace summary")


def read_trace(path) -> tuple[list[dict], int]:
    """Parse a trace file into validated records plus a malformed-line count."""
    parsed, malformed = read_jsonl_tolerant(path)
    records: list[dict] = []
    for record in parsed:
        try:
            records.append(validate_record(record))
        except ValueError:
            malformed += 1
    return records, malformed


def summarize_trace(records: Iterable[dict], n_malformed: int = 0) -> TraceSummary:
    """Group span records by name and ``model`` attribute, and aggregate
    each group's durations/errors."""
    groups: dict[tuple[str, str | None], list[dict]] = {}
    n_events = 0
    for rec in records:
        if rec["kind"] != "span":
            n_events += 1
            continue
        model = rec.get("attrs", {}).get("model")
        key = (rec["name"], None if model is None else str(model))
        groups.setdefault(key, []).append(rec)
    phases = []
    for (name, model), spans in groups.items():
        durations = [s["duration_s"] for s in spans]
        phases.append(PhaseSummary(
            name=name,
            model=model,
            count=len(spans),
            total_s=sum(durations),
            mean_s=sum(durations) / len(durations),
            min_s=min(durations),
            max_s=max(durations),
            errors=sum(1 for s in spans if s["status"] == "error"),
        ))
    phases.sort(key=lambda p: (-p.total_s, p.label))
    return TraceSummary(
        phases=tuple(phases),
        n_spans=sum(p.count for p in phases),
        n_events=n_events,
        n_malformed=n_malformed,
    )


def render_summary(summary: TraceSummary, title: str | None = None) -> str:
    """ASCII table of the per-phase breakdown, hottest phase first."""
    header = title or "per-phase breakdown"
    counts = (f"{summary.n_spans} spans, {summary.n_events} events"
              + (f", {summary.n_malformed} malformed lines skipped"
                 if summary.n_malformed else ""))
    table = format_table(
        ["phase", "count", "total_s", "mean_s", "min_s", "max_s", "errors"],
        [(p.label, p.count, p.total_s, p.mean_s, p.min_s, p.max_s, p.errors)
         for p in summary.phases],
        ndigits=4,
    )
    return f"{header} ({counts})\n{table}"


def summarize_file(path, title: str | None = None) -> str:
    """One-call convenience: read, aggregate, and render a trace file."""
    records, malformed = read_trace(path)
    summary = summarize_trace(records, n_malformed=malformed)
    return render_summary(summary, title=title or f"trace {path}")


def phase_rows(summary: TraceSummary) -> list[dict]:
    """JSON-friendly per-phase rows (used by the perf harness report)."""
    return [
        {"phase": p.label, "count": p.count, "total_s": p.total_s,
         "mean_s": p.mean_s, "min_s": p.min_s, "max_s": p.max_s,
         "errors": p.errors}
        for p in summary.phases
    ]
