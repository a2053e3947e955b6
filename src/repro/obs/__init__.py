"""Observability: metrics registry and span tracing.

``repro.obs`` is the measurement substrate for every layer of the pipeline.
It is deliberately zero-dependency (stdlib only, plus :mod:`repro.util` for
table rendering) so any subsystem — cache, parallel, simulator, ml, cli —
can instrument itself without import cycles.

Two cooperating pieces, each off by default:

* :mod:`repro.obs.metrics` — process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms; exported as one ``repro-metrics/1`` JSON
  document (``--metrics-file``, worker shard snapshots, and the
  cross-shard aggregate alike).
* :mod:`repro.obs.trace` — span-based tracing producing a JSONL event
  stream (``--trace-file``) with parent/child nesting, monotonic timings,
  and per-span exception capture; summarized by ``repro obs summarize``.
  Spans are the only stopwatch: a tracer configured with ``registry=``
  feeds ``span.<name>.seconds`` histograms, which is all ``--profile``
  reads for its per-phase table (next to one whole-command ``cProfile``).

On top of the per-process substrate sits the *service plane* (DESIGN §13):
:mod:`repro.obs.aggregate` merges per-shard trace files and metrics
snapshots into one causally-ordered timeline / summed registry, keyed by
the per-job ``trace_id`` propagated across processes via
:func:`~repro.obs.trace.trace_context`; :mod:`repro.obs.slo` folds spool
events plus worker spans into fixed-bucket latency histograms
(queue-wait, lease-to-start, execute, end-to-end) behind ``repro obs
report``.

Instrumented code uses one primitive::

    from repro.obs import phase

    with phase("sweep", app=profile.name, n_configs=n) as sp:
        cycles = compute()
        sp.set(method=resolved)

:func:`phase` is :func:`~repro.obs.trace.span`. When no tracer is
configured (the default) it returns a shared no-op context manager — one
global read, no allocation beyond the keyword dict — so instrumented paths
remain bit-identical and within noise of their uninstrumented wall-clock.
"""

from __future__ import annotations

from repro.obs.aggregate import (
    Timeline,
    aggregate_metrics,
    merge_timeline,
    read_shard_metrics,
    read_shard_traces,
    write_timeline,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
    snapshot_quantile,
)
from repro.obs.slo import (
    SLO_BUCKETS,
    SLO_METRICS,
    compute_slo,
    compute_slo_for_spool,
    render_slo_report,
    slo_snapshot,
)
from repro.obs.summarize import (
    PhaseSummary,
    TraceSummary,
    phase_rows,
    read_jsonl_tolerant,
    read_trace,
    render_summary,
    summarize_file,
    summarize_trace,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    annotate,
    configure,
    current_trace_id,
    get_tracer,
    shutdown,
    span,
    trace_context,
    validate_record,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "SLO_BUCKETS",
    "SLO_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PhaseSummary",
    "TRACE_SCHEMA",
    "Timeline",
    "TraceSummary",
    "Tracer",
    "aggregate_metrics",
    "annotate",
    "compute_slo",
    "compute_slo_for_spool",
    "configure",
    "current_trace_id",
    "default_registry",
    "get_tracer",
    "merge_timeline",
    "phase",
    "phase_rows",
    "read_jsonl_tolerant",
    "read_shard_metrics",
    "read_shard_traces",
    "read_trace",
    "render_summary",
    "render_slo_report",
    "reset_default_registry",
    "shutdown",
    "slo_snapshot",
    "snapshot_quantile",
    "span",
    "summarize_file",
    "summarize_trace",
    "trace_context",
    "validate_record",
    "write_timeline",
]


# ``phase`` is ``span`` under the name the instrumented modules import.
phase = span
