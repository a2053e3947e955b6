"""Content-addressed result cache: in-memory LRU over an optional disk store.

:class:`ResultCache` fronts any expensive, deterministic computation. The
caller describes *what* is being computed as a tuple of key parts (which must
include a code-version component when the computation's implementation can
change); :meth:`ResultCache.get_or_compute` fingerprints the parts, probes
the memory layer, then the disk layer, and only then runs the compute
function — promoting disk hits into memory and persisting fresh results to
disk. Every probe appends a ``"hit:…"``/``"miss:…"``/eviction event to
:attr:`ResultCache.events`, mirroring the ``ResilientExecutor.events``
convention, so tests and the perf harness can assert on cache behaviour
without reaching into internals. When a tracer is live, every probe is
also one ``cache.probe`` event (``key``, ``namespace``, ``kind``, ``hit``,
``layer``) in the ``repro-trace/1`` stream, replayable offline through
``benchmarks/cache_oracle.py --trace``.

The module-level :func:`default_cache` is the process-wide instance the
simulator and encoder use when asked to cache: memory-only by default, with
a disk layer underneath when ``REPRO_CACHE_DIR`` is set (or a directory is
passed to :func:`configure`). :func:`set_enabled` globally short-circuits
every ``get_or_compute`` into a plain compute, which is what the CLI's
``--no-cache`` flag toggles for reproducibility audits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.cache.disk import DiskStore
from repro.cache.fingerprint import stable_fingerprint
from repro.cache.memory import LRUCache
from repro.obs.metrics import default_registry as _metrics
from repro.obs.trace import annotate as _annotate

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_snapshot",
    "configure",
    "default_cache",
    "env_disk_root",
    "is_enabled",
    "set_enabled",
]

_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot across both layers at one instant."""

    memory_hits: int
    memory_misses: int
    memory_evictions: int
    memory_entries: int
    disk_hits: int
    disk_misses: int
    disk_entries: int

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def misses(self) -> int:
        """Full misses: probes that fell through both layers to a compute."""
        return self.memory_misses - self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d.update(hits=self.hits, misses=self.misses, hit_rate=self.hit_rate)
        return d


class ResultCache:
    """Two-layer (memory, optional disk) content-addressed cache.

    ``namespace`` scopes every key: two caches with the same disk root but
    different namespaces never collide, while any number of *processes*
    sharing one (root, namespace) pair — the service's concurrent tenants —
    transparently share entries, because keys are pure content fingerprints
    and the disk layer's writes are atomic. ``None`` (the default) keeps
    the historical un-namespaced keys, so existing disk caches stay valid.

    ``disk_breaker`` (a :class:`repro.robust.CircuitBreaker`) guards the
    disk tier: every probe whose I/O errors, feeds the breaker, and while
    it is open the disk layer is skipped entirely — the cache degrades to
    memory-only instead of stalling every request on a sick mount.
    """

    def __init__(self, max_entries: int = 128,
                 disk_root: str | os.PathLike[str] | None = None,
                 namespace: str | None = None,
                 disk_breaker: "Any | None" = None) -> None:
        self.memory = LRUCache(max_entries=max_entries)
        self.disk = DiskStore(disk_root) if disk_root is not None else None
        self.namespace = namespace
        self.disk_breaker = disk_breaker
        self.enabled = True
        self.events: list[str] = []

    def key_for(self, key_parts: Any) -> str:
        """Fingerprint of the key parts; exposed for tests and diagnostics."""
        if self.namespace is not None:
            key_parts = ("namespace", self.namespace, key_parts)
        return stable_fingerprint(key_parts)

    def _disk_allowed(self, kind: str) -> bool:
        if self.disk is None:
            return False
        if self.disk_breaker is not None and not self.disk_breaker.allow():
            self.events.append(f"breaker:disk-skip:{kind}")
            _metrics().counter("cache.disk.breaker_skips").inc()
            return False
        return True

    def _disk_probe_done(self, errors_before: int) -> None:
        """Feed the breaker with the probe's I/O outcome."""
        if self.disk_breaker is None or self.disk is None:
            return
        if self.disk.io_errors > errors_before:
            self.disk_breaker.record_failure()
        else:
            self.disk_breaker.record_success()

    def get_or_compute(self, key_parts: Any, compute: Callable[[], Any],
                       kind: str = "result") -> Any:
        """Return the cached value for ``key_parts``, computing on first use.

        ``kind`` is a short label (``"sweep-cycles"``, ``"design-matrix"``)
        used only in events and nothing else — the key is entirely determined
        by ``key_parts``.
        """
        if not (self.enabled and _GLOBAL_ENABLED):
            return compute()
        key = self.key_for(key_parts)
        before = self.memory.evictions
        value = self.memory.get(key, _MISS)
        if value is not _MISS:
            self.events.append(f"hit:memory:{kind}")
            _metrics().counter("cache.memory.hits").inc()
            self._probed(key, kind, hit=True, layer="memory")
            return value
        if self._disk_allowed(kind):
            errs = self.disk.io_errors
            value = self.disk.get(key, _MISS)
            self._disk_probe_done(errs)
            if value is not _MISS:
                self.events.append(f"hit:disk:{kind}")
                _metrics().counter("cache.disk.hits").inc()
                self.memory.put(key, value)
                self._note_evictions(before)
                self._probed(key, kind, hit=True, layer="disk")
                return value
        self.events.append(f"miss:{kind}")
        _metrics().counter("cache.misses").inc()
        self._probed(key, kind, hit=False, layer=None)
        value = compute()
        self.memory.put(key, value)
        if self._disk_allowed(kind):
            errs = self.disk.io_errors
            self.disk.put(key, value)
            self._disk_probe_done(errs)
        self._note_evictions(before)
        return value

    def _probed(self, key: str, kind: str, hit: bool, layer: str | None) -> None:
        """One ``cache.probe`` trace event per probe."""
        _annotate("cache.probe", key=key, namespace=self.namespace, kind=kind,
                  hit=hit, layer=layer)

    def _note_evictions(self, before: int) -> None:
        n_evicted = self.memory.evictions - before
        if n_evicted:
            _metrics().counter("cache.evictions").inc(n_evicted)
        for _ in range(n_evicted):
            self.events.append("evict:memory")

    def stats(self) -> CacheStats:
        return CacheStats(
            memory_hits=self.memory.hits,
            memory_misses=self.memory.misses,
            memory_evictions=self.memory.evictions,
            memory_entries=len(self.memory),
            disk_hits=self.disk.hits if self.disk is not None else 0,
            disk_misses=self.disk.misses if self.disk is not None else 0,
            disk_entries=len(self.disk) if self.disk is not None else 0,
        )

    def clear(self) -> dict[str, int]:
        """Drop all entries in both layers; returns per-layer drop counts."""
        dropped = {"memory": self.memory.clear()}
        if self.disk is not None:
            dropped["disk"] = self.disk.clear()
        return dropped


_GLOBAL_ENABLED = True
_DEFAULT: ResultCache | None = None


def default_cache() -> ResultCache:
    """The process-wide cache instance (created lazily on first use).

    Honours ``REPRO_CACHE_DIR`` at creation time: when set and non-empty,
    results are also persisted under that directory so later *processes* —
    a resumed run, the next CLI invocation — reuse them.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ResultCache(max_entries=128, disk_root=env_disk_root())
    return _DEFAULT


def env_disk_root() -> str | None:
    """The disk root ``REPRO_CACHE_DIR`` names (None when unset or empty)."""
    return os.environ.get("REPRO_CACHE_DIR") or None


def configure(max_entries: int = 128,
              disk_root: str | os.PathLike[str] | None = None,
              namespace: str | None = None,
              disk_breaker: "Any | None" = None) -> ResultCache:
    """Replace the process-wide cache with one using the given settings.

    Service workers use ``namespace`` + ``disk_breaker`` to point every
    tenant at one shared, breaker-guarded disk tier under the spool.
    """
    global _DEFAULT
    _DEFAULT = ResultCache(max_entries=max_entries, disk_root=disk_root,
                           namespace=namespace, disk_breaker=disk_breaker)
    return _DEFAULT


def set_enabled(enabled: bool) -> None:
    """Globally enable/disable caching (``--no-cache`` reproducibility mode)."""
    global _GLOBAL_ENABLED
    _GLOBAL_ENABLED = bool(enabled)


def is_enabled() -> bool:
    """Whether caching is globally enabled (see :func:`set_enabled`)."""
    return _GLOBAL_ENABLED


def cache_snapshot() -> dict[str, Any]:
    """Final counter snapshot of every process-wide cache layer.

    Cache counters live on in-process instances and vanish at exit, so this
    snapshot is what the CLI persists into ``--metrics-file`` (under the
    ``"cache"`` key) and into the trace stream (a ``cache-snapshot`` event)
    at the end of a run — the durable record ``repro cache stats`` can be
    compared against. Covers the default :class:`ResultCache` (both layers)
    and the encoder's raw-matrix LRU.
    """
    store = default_cache()
    snap: dict[str, Any] = {
        "enabled": is_enabled(),
        "result_cache": store.stats().as_dict(),
    }
    from repro.ml.preprocess import raw_matrix_cache  # local: avoids a cycle

    matrix = raw_matrix_cache()
    snap["encoder_matrix_cache"] = {
        "hits": matrix.hits,
        "misses": matrix.misses,
        "evictions": matrix.evictions,
        "entries": len(matrix),
    }
    return snap
