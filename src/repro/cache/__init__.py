"""Content-addressed result caching.

Expensive, deterministic artifacts — full design-space cycle sweeps,
preprocessed design matrices — are keyed by a stable fingerprint of their
complete inputs (including a code-version digest) and served from a
bounded in-memory LRU tier (:mod:`repro.cache.memory`) backed by an
optional on-disk store. Under a live tracer every probe is one
``cache.probe`` event in the ``repro-trace/1`` span stream
(:mod:`repro.obs.trace`), which ``benchmarks/cache_oracle.py --trace``
replays offline against the Belady/OPT oracle. See
:mod:`repro.cache.result_cache` for the orchestration layer,
:mod:`repro.cache.fingerprint` for key construction, and
:mod:`repro.cache.disk` for the persistent layer.
"""

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
    "CacheStats",
    "DiskStore",
    "LRUCache",
    "ResultCache",
    "cache_snapshot",
    "code_version",
    "configure",
    "default_cache",
    "is_enabled",
    "reset_default_cache",
    "set_enabled",
    "stable_fingerprint",
]
