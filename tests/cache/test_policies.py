"""Behavioural tests of the result cache's memory tier, :class:`LRUCache`.

LRU is the one eviction policy the cache has; the shared cases are
parametrized by policy name so their ids stay ``[lru]``. Together with
``test_policy_properties.py`` and ``test_lru_contract.py`` they pin the
tier's contract: residency, recency order, counters, refresh at capacity,
``clear`` and the ``max_entries`` check.
"""

from __future__ import annotations

import pytest

from repro.cache import LRUCache

POLICIES = {"lru": LRUCache}
ALL_POLICIES = sorted(POLICIES)


# -- shared contract ---------------------------------------------------------


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_get_put_roundtrip_and_counters(name):
    cache = POLICIES[name](4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache and len(cache) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.evictions == 0
    assert cache.max_entries == 4


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_size_never_exceeds_capacity(name):
    cache = POLICIES[name](3)
    for i in range(20):
        cache.put(f"k{i}", i)
        assert len(cache) <= 3
    assert cache.evictions == 17


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_evicted_keys_are_really_gone(name):
    cache = POLICIES[name](2)
    for i in range(10):
        cache.put(f"k{i}", i)
    resident = [f"k{i}" for i in range(10) if f"k{i}" in cache]
    assert len(resident) == len(cache) <= 2
    for i in range(10):
        key = f"k{i}"
        if key not in resident:
            assert cache.get(key) is None


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_get_default_does_not_shadow_none_values(name):
    cache = POLICIES[name](4)
    sentinel = object()
    assert cache.get("missing", sentinel) is sentinel
    cache.put("present", None)
    assert cache.get("present", sentinel) is None


# -- LRU ---------------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1     # refresh a; b is now LRU
    lru.put("c", 3)
    assert "b" not in lru
    assert lru.get("a") == 1 and lru.get("c") == 3


def test_lru_put_refresh_updates_recency():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)             # refresh via put, not get
    lru.put("c", 3)
    assert "b" not in lru and lru.get("a") == 10
