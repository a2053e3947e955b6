"""Opt-in access-trace capture: record cache probes for offline replay.

Every :meth:`repro.cache.ResultCache.get_or_compute` probe — hit or miss —
can be recorded as one compact access record so real sweep/service
workloads can be replayed offline through the memory tier's LRU and the
Belady/OPT oracle (``benchmarks/cache_oracle.py``). Capture is off
by default and costs one module-global ``None`` check per probe when off,
mirroring the :mod:`repro.obs.trace` no-op discipline, so untraced hot
paths stay bit-identical and unmeasurably close to their old wall-clock.

Records buffer in a bounded ring (oldest dropped past ``capacity``, with
the drop *counted*, never silent) and flush to JSONL on demand — the CLI
flushes at end of run, service workers at shard exit. Schema
``repro-cachetrace/1``, one JSON object per line:

``schema``
    Literal ``"repro-cachetrace/1"``.
``key``
    The probe's full content fingerprint (hex); replay only needs identity.
``namespace``
    The owning cache's namespace (``null`` for the un-namespaced default),
    so multi-tenant service traces can be split per tenant.
``kind``
    The probe's artifact label (``"sweep-cycles"``, ``"design-matrix"``…).
``hit``
    Whether any layer served the probe without computing.
``layer``
    ``"memory"``, ``"disk"``, or ``null`` (full miss → compute).
``t``
    Wall-clock epoch seconds at probe time.

When the :mod:`repro.obs` tracer is live, each flush also emits a
``cache-trace-flush`` event into the span stream, tying the capture file
to the run that produced it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterator

from repro.util.durable import read_lines

__all__ = [
    "CACHE_TRACE_SCHEMA",
    "AccessRecorder",
    "capture_enabled",
    "configure_capture",
    "get_recorder",
    "read_cache_trace",
    "record_access",
    "shutdown_capture",
    "validate_trace_record",
]

CACHE_TRACE_SCHEMA = "repro-cachetrace/1"

#: Field name -> allowed types, for :func:`validate_trace_record`.
_REQUIRED_FIELDS: dict[str, tuple[type, ...]] = {
    "schema": (str,),
    "key": (str,),
    "namespace": (str, type(None)),
    "kind": (str,),
    "hit": (bool,),
    "layer": (str, type(None)),
    "t": (float, int),
}


def validate_trace_record(record: Any) -> dict[str, Any]:
    """Check one parsed cache-trace line against the schema; return or raise."""
    if not isinstance(record, dict):
        raise ValueError(
            f"cache-trace record must be an object, got {type(record).__name__}")
    for field, types in _REQUIRED_FIELDS.items():
        if field not in record:
            raise ValueError(f"cache-trace record missing field {field!r}")
        if not isinstance(record[field], types):
            raise ValueError(
                f"cache-trace field {field!r} has type "
                f"{type(record[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}")
    if record["schema"] != CACHE_TRACE_SCHEMA:
        raise ValueError(f"unknown cache-trace schema {record['schema']!r}")
    if record["layer"] not in ("memory", "disk", None):
        raise ValueError(
            f"cache-trace layer must be memory|disk|null, got {record['layer']!r}")
    if record["hit"] and record["layer"] is None:
        raise ValueError("cache-trace hit without a serving layer")
    return record


class AccessRecorder:
    """Ring-buffered recorder of cache-probe access records.

    ``capacity`` bounds memory: past it the oldest unflushed records are
    dropped and ``n_dropped`` counts them, so a forgotten recorder on a
    long service run degrades to "most recent window" instead of OOM.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None,
                 capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path) if path is not None else None
        self.capacity = int(capacity)
        self._ring: deque[dict[str, Any]] = deque()
        self._lock = threading.Lock()
        self.n_recorded = 0
        self.n_dropped = 0
        self.n_flushed = 0

    def record(self, key: str, namespace: str | None, kind: str,
               hit: bool, layer: str | None) -> None:
        rec = {
            "schema": CACHE_TRACE_SCHEMA,
            "key": key,
            "namespace": namespace,
            "kind": kind,
            "hit": bool(hit),
            "layer": layer,
            "t": time.time(),
        }
        with self._lock:
            self._ring.append(rec)
            self.n_recorded += 1
            if len(self._ring) > self.capacity:
                self._ring.popleft()
                self.n_dropped += 1

    def __len__(self) -> int:
        return len(self._ring)

    def flush(self) -> int:
        """Append buffered records to ``path`` as JSONL; returns lines written.

        Without a path the buffer is retained (tests read it in memory via
        :meth:`snapshot`). Emits a ``cache-trace-flush`` obs event when a
        tracer is live, so the span stream records where the trace went.
        """
        with self._lock:
            if self.path is None or not self._ring:
                return 0
            batch = list(self._ring)
            self._ring.clear()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            for rec in batch:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self.n_flushed += len(batch)
        from repro.obs import trace as _obs_trace  # local: no import cycle

        if _obs_trace.tracing_enabled():
            _obs_trace.annotate("cache-trace-flush", path=str(self.path),
                                n_records=len(batch), n_dropped=self.n_dropped)
        return len(batch)

    def snapshot(self) -> list[dict[str, Any]]:
        """The unflushed records, oldest first (for in-memory inspection)."""
        with self._lock:
            return list(self._ring)


_RECORDER: AccessRecorder | None = None


def configure_capture(path: str | os.PathLike[str] | None = None,
                      capacity: int = 65536) -> AccessRecorder:
    """Install the process-wide access recorder (flushing any previous one)."""
    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.flush()
    _RECORDER = AccessRecorder(path=path, capacity=capacity)
    return _RECORDER


def get_recorder() -> AccessRecorder | None:
    return _RECORDER


def capture_enabled() -> bool:
    return _RECORDER is not None


def record_access(key: str, namespace: str | None, kind: str,
                  hit: bool, layer: str | None) -> None:
    """Record one probe on the process recorder (near-free no-op when off)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.record(key, namespace, kind, hit, layer)


def shutdown_capture() -> int:
    """Flush and uninstall the process-wide recorder; returns lines written."""
    global _RECORDER
    if _RECORDER is None:
        return 0
    n = _RECORDER.flush()
    _RECORDER = None
    return n


def read_cache_trace(path: str | os.PathLike[str]) -> Iterator[dict[str, Any]]:
    """Yield validated records from a captured JSONL trace.

    A torn final line (crashed run) is tolerated and skipped, matching the
    obs trace reader's behaviour; a malformed line elsewhere raises with
    its line number so corrupt captures fail loudly.
    """
    log = read_lines(path)
    if log.bad:
        raise ValueError(
            f"{path}:{log.bad[0] + 1}: unparseable cache-trace line")
    for _, record in log.records:
        yield validate_trace_record(record)
