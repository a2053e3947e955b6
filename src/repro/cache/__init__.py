"""Content-addressed result caching.

Expensive, deterministic artifacts — full design-space cycle sweeps,
preprocessed design matrices — are keyed by a stable fingerprint of their
complete inputs (including a code-version digest) and served from a
bounded in-memory LRU tier (:mod:`repro.cache.memory`) backed by an
optional on-disk store. Every probe can be recorded to a replayable
access trace (:mod:`repro.cache.capture`, schema ``repro-cachetrace/1``)
and replayed offline against the Belady/OPT oracle in
``benchmarks/cache_oracle.py``. See :mod:`repro.cache.result_cache` for
the orchestration layer, :mod:`repro.cache.fingerprint` for key
construction, and :mod:`repro.cache.disk` for the persistent layer.
"""

from repro.cache.capture import (
    CACHE_TRACE_SCHEMA,
    AccessRecorder,
    capture_enabled,
    configure_capture,
    get_recorder,
    read_cache_trace,
    shutdown_capture,
    validate_trace_record,
)
from repro.cache.disk import DiskStore
from repro.cache.fingerprint import code_version, stable_fingerprint
from repro.cache.memory import LRUCache
from repro.cache.result_cache import (
    CacheStats,
    ResultCache,
    cache_snapshot,
    configure,
    default_cache,
    is_enabled,
    reset_default_cache,
    set_enabled,
)

__all__ = [
    "AccessRecorder",
    "CACHE_TRACE_SCHEMA",
    "CacheStats",
    "DiskStore",
    "LRUCache",
    "ResultCache",
    "cache_snapshot",
    "capture_enabled",
    "code_version",
    "configure",
    "configure_capture",
    "default_cache",
    "get_recorder",
    "is_enabled",
    "read_cache_trace",
    "reset_default_cache",
    "set_enabled",
    "shutdown_capture",
    "stable_fingerprint",
    "validate_trace_record",
]
