"""Result-cache correctness: layers, invalidation, corruption, eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import DiskStore, LRUCache, ResultCache
from repro.cache import result_cache as rc_mod
from repro.simulator import SPEC2000_PROFILES, get_profile, sweep_design_space


class TestLRUCache:
    def test_hit_miss_counters(self):
        lru = LRUCache(max_entries=4)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert (lru.hits, lru.misses, lru.evictions) == (1, 1, 0)

    def test_eviction_accounting_and_order(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")          # refresh "a" -> "b" becomes LRU
        lru.put("c", 3)       # evicts "b"
        assert "b" not in lru
        assert "a" in lru and "c" in lru
        assert lru.evictions == 1
        assert len(lru) == 2

    def test_put_refresh_does_not_evict(self):
        lru = LRUCache(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert lru.evictions == 0
        assert lru.get("a") == 10

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            LRUCache(max_entries=0)


class TestDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        value = {"cycles": np.arange(5.0)}
        store.put("ab" + "0" * 62, value)
        loaded = store.get("ab" + "0" * 62)
        assert np.array_equal(loaded["cycles"], value["cycles"])
        assert len(store) == 1
        assert store.size_bytes() > 0

    def test_missing_key_is_default(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.get("cd" + "0" * 62, default="nope") == "nope"
        assert store.misses == 1

    @pytest.mark.parametrize("corruption", ["truncate", "flip", "garbage"])
    def test_corrupted_entry_recomputes_not_crashes(self, tmp_path, corruption):
        store = DiskStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, [1, 2, 3])
        path = store._path(key)
        raw = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        elif corruption == "flip":
            raw = bytearray(raw)
            raw[-1] ^= 0xFF
            path.write_bytes(bytes(raw))
        else:
            path.write_bytes(b"not a cache entry at all")
        assert store.get(key, default="recompute") == "recompute"
        assert not path.exists(), "corrupt entry should be discarded"

    def test_clear(self, tmp_path):
        store = DiskStore(tmp_path)
        for i in range(3):
            store.put(f"{i:02d}" + "0" * 62, i)
        assert store.clear() == 3
        assert len(store) == 0


class TestResultCache:
    def test_memory_then_disk_then_compute(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return 42

        cache = ResultCache(disk_root=tmp_path)
        assert cache.get_or_compute(("k",), compute) == 42
        assert cache.get_or_compute(("k",), compute) == 42
        assert len(calls) == 1
        assert cache.events == ["miss:result", "hit:memory:result"]

        fresh = ResultCache(disk_root=tmp_path)  # same disk, cold memory
        assert fresh.get_or_compute(("k",), compute) == 42
        assert len(calls) == 1
        assert fresh.events == ["hit:disk:result"]
        stats = fresh.stats()
        assert stats.disk_hits == 1 and stats.hits == 1 and stats.misses == 0

    def test_key_change_invalidates(self):
        cache = ResultCache()
        a = cache.get_or_compute(("config", 1), lambda: "one")
        b = cache.get_or_compute(("config", 2), lambda: "two")
        assert (a, b) == ("one", "two")
        assert cache.stats().hits == 0

    def test_code_version_part_invalidates(self, monkeypatch):
        """Simulates editing the simulator: the version part must miss."""
        from repro.cache import fingerprint as fp_mod

        cache = ResultCache()
        v1 = fp_mod.code_version()
        cache.get_or_compute(("cycles", v1), lambda: "old")
        monkeypatch.setattr(fp_mod, "code_version", lambda: "deadbeef")
        got = cache.get_or_compute(
            ("cycles", fp_mod.code_version()), lambda: "new")
        assert got == "new"

    def test_eviction_events(self):
        cache = ResultCache(max_entries=1)
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        assert "evict:memory" in cache.events
        assert cache.stats().memory_evictions == 1

    def test_disabled_instance_always_computes(self):
        calls = []
        cache = ResultCache()
        cache.enabled = False
        for _ in range(2):
            cache.get_or_compute(("k",), lambda: calls.append(1))
        assert len(calls) == 2
        assert cache.events == []

    def test_global_disable(self):
        calls = []
        cache = ResultCache()
        rc_mod.set_enabled(False)
        try:
            for _ in range(2):
                cache.get_or_compute(("k",), lambda: calls.append(1))
        finally:
            rc_mod.set_enabled(True)
        assert len(calls) == 2

    def test_clear_reports_per_layer(self, tmp_path):
        cache = ResultCache(disk_root=tmp_path)
        cache.get_or_compute(("k",), lambda: 7)
        assert cache.clear() == {"memory": 1, "disk": 1}

    def test_stats_hit_rate(self):
        cache = ResultCache()
        cache.get_or_compute(("k",), lambda: 1)
        cache.get_or_compute(("k",), lambda: 1)
        cache.get_or_compute(("k",), lambda: 1)
        assert cache.stats().hit_rate == pytest.approx(2 / 3)


class TestSweepCaching:
    """End-to-end: sweep results identical with caching off, cold, and warm."""

    def test_default_tier_holds_every_profile_sweep(self, design_space):
        """Sweeping the full space of every profile, twice, never evicts
        from a default cache — the invariant that makes one LRU tier enough."""
        store = ResultCache()
        for _ in range(2):
            for name in SPEC2000_PROFILES:
                sweep_design_space(design_space, get_profile(name), cache=store)
        n = len(SPEC2000_PROFILES)
        assert store.memory.evictions == 0
        assert len(store.memory) == n
        assert (store.memory.hits, store.memory.misses) == (n, n)

    def test_sweep_cache_bit_identity(self, design_space, tmp_path):
        profile = get_profile("parser")
        subset = design_space[:96]
        off = sweep_design_space(subset, profile)
        store = ResultCache(disk_root=tmp_path)
        cold = sweep_design_space(subset, profile, cache=store)
        warm = sweep_design_space(subset, profile, cache=store)
        assert np.array_equal(off, cold)
        assert np.array_equal(off, warm)
        assert store.stats().hits == 1

    def test_different_profile_misses(self, design_space):
        store = ResultCache()
        subset = design_space[:8]
        sweep_design_space(subset, get_profile("gcc"), cache=store)
        sweep_design_space(subset, get_profile("mcf"), cache=store)
        assert store.stats().hits == 0

    def test_cached_result_immune_to_caller_mutation(self, design_space):
        store = ResultCache()
        subset = design_space[:8]
        first = sweep_design_space(subset, profile := get_profile("gcc"), cache=store)
        first[:] = -1.0
        second = sweep_design_space(subset, profile, cache=store)
        assert not np.array_equal(first, second)
        assert (second > 0).all()


class TestRateSweepCachingEquivalence:
    """End-to-end acceptance: run_rate_sweep is identical on/off/warm."""

    def test_rate_sweep_identical_on_off_warm(self, space_dataset):
        from repro.core import model_builders, run_rate_sweep
        from repro.ml.preprocess import raw_matrix_cache

        space = space_dataset("gzip")
        builders = model_builders(("LR-B", "LR-E"), seed=0)

        def sweep():
            return run_rate_sweep(space, builders, [0.01, 0.02],
                                  np.random.default_rng(0), n_cv_reps=2)

        rc_mod.set_enabled(False)
        try:
            off = sweep()
        finally:
            rc_mod.set_enabled(True)
        raw_matrix_cache().clear()
        cold = sweep()
        hits_before = raw_matrix_cache().hits
        warm = sweep()
        assert raw_matrix_cache().hits > hits_before, "warm rerun must hit"

        for a, b in zip(off, cold):
            assert a.true_errors() == b.true_errors()
            assert a.estimated_errors() == b.estimated_errors()
        for a, b in zip(cold, warm):
            assert a.true_errors() == b.true_errors()
            assert a.estimated_errors() == b.estimated_errors()
