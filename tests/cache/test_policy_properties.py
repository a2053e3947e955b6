"""Property-based tests for the invariants of the memory tier.

One seeded random workload generator drives :class:`repro.cache.LRUCache`
(the one eviction policy, parametrized by name so the ids stay ``[lru]``)
through mixed get/put/clear operation streams, checking after every step:

* residency never exceeds ``max_entries``;
* a key just ``put`` is immediately gettable with its exact value;
* an evicted key is really gone (``get`` misses, ``in`` is False);
* hits + misses equals the number of ``get`` calls, and evictions
  equals insertions minus residents minus cleared entries.

Runs under hypothesis when installed; falls back to a fixed
seeded-random sweep otherwise, so the properties stay tested in minimal
environments.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import LRUCache

try:
    from hypothesis import given, settings, strategies as st

    def seeds(n_examples: int = 30, max_seed: int = 10**6):
        """Feed the test a shrinkable integer seed via hypothesis."""

        def deco(fn):
            return settings(max_examples=n_examples, deadline=None)(
                given(st.integers(0, max_seed))(fn)
            )

        return deco

except ImportError:  # pragma: no cover - exercised only without hypothesis

    def seeds(n_examples: int = 30, max_seed: int = 10**6):
        """Fallback: a fixed, seeded sweep of random example seeds."""
        picker = random.Random(20260808)
        chosen = [picker.randrange(max_seed + 1) for _ in range(n_examples)]

        def deco(fn):
            return pytest.mark.parametrize("seed", chosen)(fn)

        return deco


POLICIES = {"lru": LRUCache}
ALL_POLICIES = sorted(POLICIES)


def _run_workload(policy_name: str, seed: int, n_ops: int = 400) -> None:
    rng = random.Random(seed)
    capacity = rng.randint(1, 12)
    cache = POLICIES[policy_name](capacity)
    n_keys = rng.randint(1, 30)
    keys = [f"k{i}" for i in range(n_keys)]

    contents: dict[str, int] = {}   # mirror of what must be resident
    n_gets = 0
    n_insertions = 0
    n_cleared = 0

    for step in range(n_ops):
        op = rng.random()
        key = rng.choice(keys)
        if op < 0.45:
            n_gets += 1
            got = cache.get(key)
            if key in contents:
                assert got == contents[key], \
                    f"{policy_name}: resident {key} returned {got!r}"
        elif op < 0.95:
            value = step
            was_resident = key in cache
            cache.put(key, value)
            if not was_resident:
                n_insertions += 1
            contents[key] = value
            assert key in cache, f"{policy_name}: just-put {key} not resident"
            n_gets += 1
            assert cache.get(key) == value
        else:
            n_cleared += cache.clear()
            contents.clear()
            assert len(cache) == 0

        # residency bound + mirror consistency, every single step
        assert len(cache) <= capacity
        evicted = [k for k in list(contents) if k not in cache]
        for k in evicted:       # the policy chose these victims; mirror it
            assert cache.get(k) is None
            n_gets += 1
            del contents[k]
        assert len(contents) == len(cache), \
            f"{policy_name}: mirror {len(contents)} != resident {len(cache)}"

    assert cache.hits + cache.misses == n_gets
    assert cache.evictions == n_insertions - len(cache) - n_cleared
    # every mirrored key must still serve its exact last value
    n = len(cache)
    for k, v in contents.items():
        assert cache.get(k) == v
    assert len(cache) == n      # reads never change residency


@pytest.mark.parametrize("name", ALL_POLICIES)
@seeds()
def test_policy_invariants_under_random_workload(name, seed):
    _run_workload(name, seed)


@pytest.mark.parametrize("name", ALL_POLICIES)
@seeds(n_examples=10)
def test_capacity_one_degenerate_cache(name, seed):
    """The tier must behave at the smallest legal capacity."""
    rng = random.Random(seed)
    cache = POLICIES[name](1)
    last = None
    for step in range(100):
        key = f"k{rng.randrange(5)}"
        cache.put(key, step)
        last = (key, step)
        assert len(cache) == 1
        assert cache.get(last[0]) == last[1]
