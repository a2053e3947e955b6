"""In-memory LRU layer of the result cache.

A plain ``OrderedDict`` ordered cold→hot, with hit/miss/eviction counters.
``get`` and ``put`` both refresh recency; eviction pops the cold end.
Refreshing an existing key replaces its value in place — even at capacity
it never evicts and never bumps the eviction counter.

Keys are the hex fingerprints produced by
:func:`repro.cache.fingerprint.stable_fingerprint`; values are whatever the
compute function returned (stored by reference — callers that mutate
results must copy, which :class:`repro.cache.ResultCache` does for arrays).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

__all__ = ["LRUCache"]

_MISS = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters."""

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._data: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        value = self._data.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if over budget."""
        if key in self._data:
            # Refresh: recency bump + value swap. Size is unchanged, so this
            # can never push the cache over budget — no eviction.
            self._data.move_to_end(key)
            self._data[key] = value
            return
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (counters are preserved); returns entries dropped."""
        n = len(self._data)
        self._data.clear()
        return n
