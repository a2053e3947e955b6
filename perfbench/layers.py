"""Layer spans and their fold into per-layer metrics.

Every call the benchmark makes into a layer of the program is wrapped in
:func:`layer_span`, a span of the existing ``repro.obs`` tracer whose name
is ``<layer>.<operation>`` and whose ``layer`` attribute marks it as a
benchmark span. Spans the program opens itself (``sweep``, ``holdout``,
``encode``, ...) nest inside them and carry no ``layer`` attribute, so they
count towards the enclosing layer.

A layer's self time is its span's duration minus the durations of its
direct child benchmark spans. ``core.*`` spans wrap one unit of orchestration
work, so their self time is orchestration time no layer span covers.
"""

from __future__ import annotations

import io
import json
import time
from collections import defaultdict
from typing import Any, Callable

from repro import obs


def layer_span(name: str, **attrs: Any):
    """A benchmark span around one layer call (no-op while tracing is off)."""
    return obs.span(name, layer=name.split(".", 1)[0], **attrs)


def metric_name(span_name: str, attrs: dict[str, Any]) -> str:
    """Per-layer metric a span's self time is charged to."""
    if span_name.startswith("core."):
        return "core.self_s"
    model = attrs.get("model")
    return f"{span_name}_s" + (f".{model}" if model else "")


def self_times(records: list[dict]) -> tuple[dict[str, float], float]:
    """Summed self time per metric, and the summed duration of root spans.

    Only benchmark spans (those with a ``layer`` attribute) take part. A
    root span is one whose parent is not a benchmark span.
    """
    spans = {r["span_id"]: r for r in records
             if r.get("kind") == "span" and "layer" in r.get("attrs", {})}
    child_time: dict[int, float] = defaultdict(float)
    for r in spans.values():
        if r["parent_id"] in spans:
            child_time[r["parent_id"]] += r["duration_s"]
    totals: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for sid, r in spans.items():
        totals[metric_name(r["name"], r["attrs"])] += \
            r["duration_s"] - child_time[sid]
        if r["parent_id"] not in spans:
            root_time += r["duration_s"]
    return dict(totals), root_time


def trace_pass(fn: Callable[[], Any]) -> tuple[Any, list[dict], float]:
    """Run ``fn`` under an in-memory tracer; return its result and spans.

    Spans are kept in memory while ``fn`` runs and parsed afterwards, so
    the traced pass pays no file I/O per span. The third value is the
    pass's wall time.
    """
    buf = io.StringIO()
    obs.configure(stream=buf)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        obs.shutdown()
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    return result, records, wall
