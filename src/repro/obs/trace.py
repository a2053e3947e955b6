"""Span-based tracing: a JSONL event stream with nesting and error capture.

A *span* is one timed phase of the pipeline — ``sweep``, ``encode``,
``train``, ``predict``, ``holdout`` — opened as a context manager::

    with trace.span("train", model="NN-Q") as sp:
        model.fit(sample)
        sp.set(n_records=sample.n_records)

When tracing is off (the default) ``span`` returns a shared no-op context
manager: one global read, no allocation, no I/O — sweeps stay bit-identical
and within noise of the untraced wall-clock. When a tracer is configured
(CLI ``--trace-file``), each completed span appends one JSON line:

``schema``
    Literal ``"repro-trace/1"``.
``kind``
    ``"span"`` for timed phases, ``"event"`` for instantaneous annotations.
``span_id`` / ``parent_id``
    Small integers; ``parent_id`` is ``null`` for root spans. Nesting is
    tracked per thread, so spans opened inside a span become its children.
``name`` / ``attrs``
    The phase name and its key/value attributes.
``t_wall`` / ``t_start`` / ``duration_s``
    Wall-clock epoch seconds at open; monotonic seconds since the tracer
    was created (immune to clock steps); and the span's monotonic duration.
    Events carry ``duration_s = 0.0``.
``status`` / ``error``
    ``"ok"`` or ``"error"``; on error the exception's class name and
    message are captured (and the exception propagates unchanged).
``trace_id``
    Optional cross-process correlation key (``null`` outside any trace
    context). The service stamps one trace id per job at submission; every
    worker that touches the job — including a successor resuming it after a
    crash — adopts it via :func:`trace_context`, so
    :mod:`repro.obs.aggregate` can merge per-shard trace files into one
    per-job timeline spanning submit → lease → execute → done.

Completed spans also feed the metrics registry when one is attached:
``span.<name>.seconds`` (histogram) and ``span.<name>.errors`` (counter).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, IO, TextIO

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TRACE_SCHEMA",
    "Tracer",
    "annotate",
    "configure",
    "current_trace_id",
    "get_tracer",
    "shutdown",
    "span",
    "trace_context",
    "validate_record",
]

TRACE_SCHEMA = "repro-trace/1"

#: Field name -> allowed types, for :func:`validate_record`.
_REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    "schema": (str,),
    "kind": (str,),
    "span_id": (int,),
    "parent_id": (int, type(None)),
    "name": (str,),
    "t_wall": (float, int),
    "t_start": (float, int),
    "duration_s": (float, int),
    "status": (str,),
    "error": (dict, type(None)),
    "attrs": (dict,),
}


def validate_record(record: Any) -> dict[str, Any]:
    """Check one parsed trace line against the schema; returns it or raises.

    Raises :class:`ValueError` with a message naming the offending field, so
    both the test suite and ``repro obs summarize`` can report *why* a line
    is malformed.
    """
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be an object, got {type(record).__name__}")
    for field, types in _REQUIRED_FIELDS.items():
        if field not in record:
            raise ValueError(f"trace record missing field {field!r}")
        if not isinstance(record[field], types):
            raise ValueError(
                f"trace field {field!r} has type {type(record[field]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if record["schema"] != TRACE_SCHEMA:
        raise ValueError(f"unknown trace schema {record['schema']!r}")
    if record["kind"] not in ("span", "event"):
        raise ValueError(f"trace kind must be span|event, got {record['kind']!r}")
    if record["status"] not in ("ok", "error"):
        raise ValueError(f"trace status must be ok|error, got {record['status']!r}")
    if record["duration_s"] < 0:
        raise ValueError(f"trace duration_s must be >= 0, got {record['duration_s']}")
    if record["status"] == "error" and record["error"] is None:
        raise ValueError("trace status is 'error' but no error payload present")
    if "trace_id" in record and not isinstance(record["trace_id"], (str, type(None))):
        raise ValueError(
            f"trace field 'trace_id' has type {type(record['trace_id']).__name__}, "
            "expected str/NoneType")
    return record


# -- cross-process trace context ---------------------------------------------
#
# The current trace id is process-global, per-thread state *independent* of
# any tracer instance: a worker adopts a job's trace id before it knows
# whether tracing is even configured, and setting a thread-local is cheap
# enough to do unconditionally (no I/O, no allocation beyond the attribute).

_CONTEXT = threading.local()


def current_trace_id() -> str | None:
    """The trace id spans/events opened on this thread will carry."""
    return getattr(_CONTEXT, "trace_id", None)


class _TraceContextCM:
    """Context manager restoring the previous trace id on exit (nestable)."""

    __slots__ = ("_trace_id", "_previous")

    def __init__(self, trace_id: str | None) -> None:
        self._trace_id = trace_id
        self._previous: str | None = None

    def __enter__(self) -> str | None:
        self._previous = current_trace_id()
        _CONTEXT.trace_id = self._trace_id
        return self._trace_id

    def __exit__(self, *exc: Any) -> bool:
        _CONTEXT.trace_id = self._previous
        return False


def trace_context(trace_id: str | None) -> _TraceContextCM:
    """Adopt ``trace_id`` as the current correlation key for this thread.

    Every span/event recorded inside the ``with`` block carries it, tying
    work done in this process to the distributed trace that id names (for
    the service: one id per job, minted at submission, shared by every
    worker generation that touches the job).
    """
    return _TraceContextCM(trace_id)


class _SpanHandle:
    """What ``with span(...) as sp`` yields: lets the body add attributes."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "trace_id",
                 "_t0_monotonic", "_t_wall")

    def __init__(self, name: str, attrs: dict[str, Any], span_id: int,
                 parent_id: int | None, t0: float, t_wall: float,
                 trace_id: str | None = None) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self._t0_monotonic = t0
        self._t_wall = t_wall

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span body runs."""
        self.attrs.update(attrs)


class _SpanContext:
    """Context manager for one live span; writes its record on exit."""

    __slots__ = ("_tracer", "_handle")

    def __init__(self, tracer: "Tracer", handle: _SpanHandle) -> None:
        self._tracer = tracer
        self._handle = handle

    def __enter__(self) -> _SpanHandle:
        self._tracer._push(self._handle)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self._handle, exc)
        return False  # never swallow the body's exception


class _NullHandle:
    """Shared do-nothing handle for the tracing-disabled fast path."""

    __slots__ = ()
    name = ""
    span_id = -1
    parent_id = None
    trace_id = None

    @property
    def attrs(self) -> dict[str, Any]:
        return {}

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullHandle()


class Tracer:
    """Writes span/event records as JSON lines to a file or stream.

    Parameters
    ----------
    path:
        JSONL output file (opened lazily, appended, fsync-free — traces are
        diagnostics, not checkpoints).
    stream:
        Alternative sink, e.g. an ``io.StringIO`` in tests. ``path`` wins
        if both are given.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` that receives
        ``span.<name>.seconds`` / ``span.<name>.errors`` for every span even
        when no file sink is attached.
    """

    def __init__(self, path=None, stream: TextIO | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.path = path
        self._stream: IO[str] | None = stream
        self.registry = registry
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._epoch = time.monotonic()
        self.n_records = 0

    # -- plumbing ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.path is not None or self._stream is not None \
            or self.registry is not None

    def _stack(self) -> list[_SpanHandle]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _write(self, record: dict[str, Any]) -> None:
        if self.path is None and self._stream is None:
            with self._lock:  # registry-only: count, never serialize
                self.n_records += 1
            return
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._stream is None:
                from pathlib import Path

                p = Path(self.path)
                p.parent.mkdir(parents=True, exist_ok=True)
                self._stream = open(p, "a", encoding="utf-8")
            self._stream.write(line + "\n")
            self._stream.flush()
            self.n_records += 1

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        handle = _SpanHandle(name, dict(attrs), self._allocate_id(), parent_id,
                             time.monotonic(), time.time(),
                             trace_id=current_trace_id())
        return _SpanContext(self, handle)

    def _push(self, handle: _SpanHandle) -> None:
        self._stack().append(handle)

    def _finish(self, handle: _SpanHandle, exc: BaseException | None) -> None:
        duration = time.monotonic() - handle._t0_monotonic
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        status = "error" if exc is not None else "ok"
        error = None
        if exc is not None:
            error = {"type": type(exc).__name__, "message": str(exc)}
        self._write({
            "schema": TRACE_SCHEMA,
            "kind": "span",
            "span_id": handle.span_id,
            "parent_id": handle.parent_id,
            "name": handle.name,
            "t_wall": handle._t_wall,
            "t_start": handle._t0_monotonic - self._epoch,
            "duration_s": duration,
            "status": status,
            "error": error,
            "trace_id": handle.trace_id,
            "attrs": handle.attrs,
        })
        if self.registry is not None:
            self.registry.histogram(f"span.{handle.name}.seconds").observe(duration)
            if exc is not None:
                self.registry.counter(f"span.{handle.name}.errors").inc()

    def annotate(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous event (zero duration, current nesting)."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        now = time.monotonic()
        self._write({
            "schema": TRACE_SCHEMA,
            "kind": "event",
            "span_id": self._allocate_id(),
            "parent_id": parent_id,
            "name": name,
            "t_wall": time.time(),
            "t_start": now - self._epoch,
            "duration_s": 0.0,
            "status": "ok",
            "error": None,
            "trace_id": current_trace_id(),
            "attrs": dict(attrs),
        })

    def close(self) -> None:
        with self._lock:
            if self._stream is not None and self.path is not None:
                self._stream.close()
                self._stream = None


_TRACER: Tracer | None = None


def configure(trace_path=None, *, stream: TextIO | None = None,
              registry: MetricsRegistry | None = None) -> Tracer:
    """Install the process-wide tracer (closing any previous one)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(path=trace_path, stream=stream, registry=registry)
    return _TRACER


def get_tracer() -> Tracer | None:
    return _TRACER


def shutdown() -> None:
    """Close and uninstall the process-wide tracer."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def span(name: str, **attrs: Any):
    """Open a span on the process tracer; no-op context manager when off."""
    tracer = _TRACER
    if tracer is None or not tracer.enabled:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def annotate(name: str, **attrs: Any) -> None:
    """Record an instantaneous event on the process tracer (no-op when off)."""
    tracer = _TRACER
    if tracer is not None and tracer.enabled:
        tracer.annotate(name, **attrs)
