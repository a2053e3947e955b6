"""The contract of the result cache's memory tier, :class:`LRUCache`.

* refreshing a resident key at capacity never evicts;
* ``clear`` drops the entries and keeps the counters;
* ``max_entries < 1`` raises.

Residency, recency order and the counters under a seeded random operation
stream are in ``test_policies.py`` and ``test_policy_properties.py``.
"""

from __future__ import annotations

import pytest

from repro.cache import LRUCache


def test_refresh_at_capacity_never_evicts():
    lru = LRUCache(3)
    for i in range(3):
        lru.put(f"k{i}", i)
    for i in range(3):
        lru.put(f"k{i}", i + 100)  # refresh every resident at capacity
    assert len(lru) == 3 and lru.evictions == 0
    assert [lru.get(f"k{i}") for i in range(3)] == [100, 101, 102]


def test_clear_keeps_counters():
    lru = LRUCache(2)
    for key in "abc":
        lru.put(key, 1)
    lru.get("c")
    lru.get("a")
    assert lru.clear() == 2
    assert len(lru) == 0 and "c" not in lru
    assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 1)


@pytest.mark.parametrize("max_entries", [0, -1])
def test_max_entries_below_one_raises(max_entries):
    with pytest.raises(ValueError, match="max_entries"):
        LRUCache(max_entries)
