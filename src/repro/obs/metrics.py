"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

Every layer of the pipeline (executor retries, cache probes, span timings)
reports into one process-wide :class:`MetricsRegistry`. The registry is the
*only* coupling between instrumented code and observability consumers:
instrumentation calls ``default_registry().counter("...").inc()`` and never
cares whether anyone is looking; exporters snapshot the registry into JSON
(``--metrics-file``) or a diff-friendly text table at the end of a run.

Design constraints, in order:

1. **Zero dependencies** — stdlib only, so the obs layer can be imported by
   every other subsystem (cache, parallel, simulator) without cycles.
2. **Cheap when idle** — an increment is a dict lookup plus a lock; nothing
   is ever written or allocated per update beyond the metric's own state.
   Instrumentation sits at coarse granularity (per task, per cache probe,
   per phase), never per design-space configuration.
3. **Deterministic exports** — snapshots are sorted by metric name, and a
   histogram's bucket boundaries are fixed at creation, so two identical
   runs export byte-identical JSON (modulo timings).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any, Mapping, Sequence

from repro.util import durable

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "reset_default_registry",
    "snapshot_quantile",
]

#: The one metrics document: ``--metrics-file`` exports, worker shard
#: snapshots and the cross-shard aggregate all carry this schema.
METRICS_SCHEMA = "repro-metrics/1"

#: Default histogram boundaries (seconds): spans range from sub-millisecond
#: encoder calls to multi-minute full-space NN sweeps.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """Monotonically increasing count (tasks completed, cache hits, ...)."""

    kind = "counter"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self._value}


class Gauge:
    """Last-write-wins instantaneous value (entries in a cache, pool width)."""

    kind = "gauge"
    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self._value}


class Histogram:
    """Fixed-boundary histogram of observations (span durations, sizes).

    ``buckets`` are strictly increasing upper bounds; an observation ``v``
    lands in the first bucket whose bound satisfies ``v <= bound`` and in
    the implicit overflow bucket when it exceeds every bound (the usual
    ``+Inf`` convention). Boundaries are fixed at creation so bucket math
    is a pure function of the observation stream.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "_lock", "_counts", "_overflow",
                 "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        i = bisect_left(self.buckets, value)
        with self._lock:
            if i == len(self.buckets):
                self._overflow += 1
            else:
                self._counts[i] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, excluding overflow."""
        return list(self._counts)

    def cumulative_counts(self) -> list[int]:
        """Cumulative counts per bound, ending with the total observation count."""
        out, running = [], 0
        for c in self._counts:
            running += c
            out.append(running)
        out.append(running + self._overflow)
        return out

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the ``q``-quantile observation.

        Returns the recorded maximum for quantiles landing in the overflow
        bucket, and 0.0 for an empty histogram.
        """
        return snapshot_quantile(self.snapshot(), q)

    def summary(self) -> dict[str, Any]:
        """The latency cell reports print: count, p50/p95/p99, mean, max."""
        snap = self.snapshot()
        return {
            "count": snap["count"],
            "p50": snapshot_quantile(snap, 0.50),
            "p95": snapshot_quantile(snap, 0.95),
            "p99": snapshot_quantile(snap, 0.99),
            "mean": snap["mean"],
            "max": snap["max"],
        }

    def snapshot(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "overflow": self._overflow,
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }


def snapshot_quantile(snap: Mapping[str, Any], q: float) -> float:
    """Bucket-upper-bound quantile over a histogram snapshot.

    The one bucket walk behind :meth:`Histogram.quantile`; it also serves
    the merged histograms of an aggregate document, which are plain dicts.
    Quantiles landing in the overflow bucket return the recorded maximum.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(snap.get("count") or 0)
    if count == 0:
        return 0.0
    rank = q * count
    running = 0
    for bound, c in zip(snap["buckets"], snap["counts"]):
        running += c
        if running >= rank:
            return float(bound)
    mx = snap.get("max")
    return float(mx) if mx is not None else float(snap["buckets"][-1])


class MetricsRegistry:
    """Get-or-create registry of named metrics with atomic snapshot/export."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, *args)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{metric.kind}, not a {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Name -> metric snapshot, sorted by name (deterministic export)."""
        with self._lock:
            return {name: self._metrics[name].snapshot()
                    for name in sorted(self._metrics)}

    def to_json(self, extra: Mapping[str, Any] | None = None, indent: int = 2) -> str:
        doc: dict[str, Any] = {"schema": METRICS_SCHEMA, "metrics": self.snapshot()}
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=indent, sort_keys=True) + "\n"

    def export(self, path, extra: Mapping[str, Any] | None = None) -> None:
        """Atomically replace ``path`` with the JSON snapshot."""
        durable.replace_file(path, self.to_json(extra=extra).encode(),
                             sync=False)

    def render_table(self, title: str | None = None) -> str:
        """One line per metric: ``<name>  <type>  <value summary>``."""
        lines = [title] if title else []
        snap = self.snapshot()
        width = max((len(n) for n in snap), default=0)
        for name, s in snap.items():
            if s["type"] == "histogram":
                summary = (f"count={s['count']} sum={s['sum']:.4f}s "
                           f"mean={s['mean']:.4f}s")
            else:
                value = s["value"]
                summary = f"{value:g}"
            lines.append(f"{name.ljust(width)}  {s['type']:<9}  {summary}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_DEFAULT: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer reports into."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = MetricsRegistry()
    return _DEFAULT


def reset_default_registry() -> None:
    """Drop the process-wide registry (tests; next use creates a fresh one)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
