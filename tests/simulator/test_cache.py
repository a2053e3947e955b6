"""Tests for the detailed set-associative LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.cache import Cache, MultiLevelCache


class TestGeometry:
    def test_sets_computed(self):
        c = Cache(16 * 1024, 32, 4)
        assert c.n_sets == 128

    def test_rejects_untiled(self):
        with pytest.raises(ValueError):
            Cache(1000, 32, 4)
        with pytest.raises(ValueError):
            Cache(16 * 1024, 32, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Cache(0, 32, 4)


class TestLruBehaviour:
    def test_cold_miss_then_hit(self):
        c = Cache(1024, 32, 4)
        assert not c.access(0)
        assert c.access(0)

    def test_same_line_offsets_hit(self):
        c = Cache(1024, 32, 4)
        c.access(64)
        assert c.access(64 + 31)  # same 32-byte line
        assert not c.access(64 + 32)  # next line

    def test_lru_eviction_order(self):
        # Direct-ish scenario: 4-way set; touch 4 lines, then a 5th evicts
        # the least-recently used, not the most recent.
        c = Cache(4 * 32, 32, 4)  # one set, 4 ways
        for i in range(4):
            c.access(i * 32)
        c.access(0)             # make line 0 most-recent
        c.access(4 * 32)        # evicts line 1 (LRU)
        assert c.access(0)      # still resident
        assert not c.access(1 * 32)  # evicted

    def test_conflict_misses_in_set(self):
        c = Cache(16 * 1024, 32, 4)  # 128 sets
        stride = c.n_sets * 32  # all map to set 0
        for k in range(5):
            c.access(k * stride)
        assert not c.access(0)  # evicted by the 5th conflicting line

    def test_stats_track(self):
        c = Cache(1024, 32, 4)
        c.access(0)
        c.access(0)
        assert c.stats.accesses == 2
        assert c.stats.misses == 1
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_reset(self):
        c = Cache(1024, 32, 4)
        c.access(0)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(0)  # cold again


class TestAccessStream:
    def test_matches_scalar_access(self):
        addrs = np.random.default_rng(0).integers(0, 1 << 20, 500).astype(np.uint64)
        a = Cache(8 * 1024, 32, 4)
        b = Cache(8 * 1024, 32, 4)
        stream_hits = a.access_stream(addrs)
        scalar_hits = np.array([b.access(int(x)) for x in addrs])
        np.testing.assert_array_equal(stream_hits, scalar_hits)

    def test_stats_accumulate(self):
        c = Cache(8 * 1024, 32, 4)
        addrs = np.arange(0, 512 * 32, 32, dtype=np.uint64)
        c.access_stream(addrs)
        assert c.stats.accesses == 512

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16))
    def test_repeat_stream_all_hits_when_fits(self, base):
        # A working set smaller than capacity must fully hit on re-traversal.
        c = Cache(4 * 1024, 32, 4)
        addrs = (base + np.arange(0, 64 * 32, 32)).astype(np.uint64)  # 2 KB
        c.access_stream(addrs)
        hits = c.access_stream(addrs)
        assert hits.all()

    def test_bigger_cache_never_more_misses_fully_assoc(self):
        # LRU inclusion property (guaranteed for fully-associative LRU).
        rng = np.random.default_rng(1)
        addrs = (rng.zipf(1.5, 3000) * 32 % (1 << 22)).astype(np.uint64)
        small = Cache(64 * 32, 32, 64)   # fully associative
        big = Cache(256 * 32, 32, 256)   # fully associative
        m_small = int((~small.access_stream(addrs)).sum())
        m_big = int((~big.access_stream(addrs)).sum())
        assert m_big <= m_small


def _pc_like(rng, n, jump_every=7):
    """Consecutive 4-byte PCs with a random jump about every ``jump_every``
    instructions, as a fetch stream runs through basic blocks."""
    steps = np.where(rng.random(n) < 1 / jump_every, rng.integers(-4096, 4096, n) * 4, 4)
    return (1 << 22) + np.cumsum(steps).astype(np.uint64)


def _runs(rng, n, span):
    """Random addresses, each repeated for a run of 1-8 accesses."""
    addrs = rng.integers(0, span, n).astype(np.uint64)
    return np.repeat(addrs, rng.integers(1, 9, n))


def _assert_stream_equals_scalar(make, chunks):
    """``access_stream`` over ``chunks`` leaves the hits, stats and sets that
    calling ``access`` on every address does."""
    a, b = make(), make()
    for addrs in chunks:
        stream_hits = a.access_stream(addrs)
        assert stream_hits.dtype == bool and stream_hits.shape == addrs.shape
        np.testing.assert_array_equal(
            stream_hits, np.array([b.access(int(x)) for x in addrs], dtype=bool))
    assert (a.stats.accesses, a.stats.misses) == (b.stats.accesses, b.stats.misses)
    assert a._sets == b._sets


GEOMETRIES = [(1024, 32, 2), (8 * 1024, 32, 4), (4 * 1024, 64, 8), (2048, 128, 4)]


class TestStreamWithRepeats:
    """The stream kernel collapses back-to-back accesses to one block."""

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_pc_like_stream(self, geom):
        addrs = _pc_like(np.random.default_rng(2), 3000)
        _assert_stream_equals_scalar(lambda: Cache(*geom), [addrs])

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_random_runs(self, geom):
        addrs = _runs(np.random.default_rng(3), 800, 1 << 14)
        _assert_stream_equals_scalar(lambda: Cache(*geom), [addrs])

    @pytest.mark.parametrize("geom", GEOMETRIES)
    def test_next_call_starts_on_last_block(self, geom):
        rng = np.random.default_rng(4)
        first = _runs(rng, 300, 1 << 13)
        # Flipping the lowest address bit stays in the block.
        second = np.concatenate([first[-1:] ^ np.uint64(1), _runs(rng, 300, 1 << 13)])
        third = np.concatenate([second[-1:], second[-1:], _pc_like(rng, 500)])
        _assert_stream_equals_scalar(lambda: Cache(*geom), [first, second, third])

    def test_all_one_block(self):
        addrs = np.full(50, 96, dtype=np.uint64)
        _assert_stream_equals_scalar(lambda: Cache(1024, 32, 4), [addrs, addrs[:1]])

    def test_empty_stream(self):
        empty = np.array([], dtype=np.uint64)
        c = Cache(1024, 32, 4)
        hits = c.access_stream(empty)
        assert hits.shape == (0,) and hits.dtype == bool
        assert (c.stats.accesses, c.stats.misses) == (0, 0)
        _assert_stream_equals_scalar(lambda: Cache(1024, 32, 4),
                                     [empty, np.array([0, 0, 32], dtype=np.uint64), empty])


class TestMultiLevel:
    def test_l1_hit_zero_latency(self):
        h = MultiLevelCache(Cache(1024, 32, 4), Cache(4096, 64, 4), None,
                            10.0, 36.0, 250.0)
        addrs = np.array([0, 0], dtype=np.uint64)
        lat = h.access_stream(addrs)
        assert lat[1] == 0.0

    def test_miss_chain_latencies(self):
        h = MultiLevelCache(Cache(1024, 32, 4), Cache(4096, 64, 4), None,
                            10.0, 36.0, 250.0)
        lat = h.access_stream(np.array([0], dtype=np.uint64))
        assert lat[0] == 250.0  # cold: misses L1 and L2, no L3
        lat2 = h.access_stream(np.array([0], dtype=np.uint64))
        assert lat2[0] == 0.0   # now resident in L1

    def test_l2_hit_after_l1_eviction(self):
        l1 = Cache(4 * 32, 32, 4)  # tiny: 4 lines
        h = MultiLevelCache(l1, Cache(64 * 64, 64, 4), None, 10.0, 36.0, 250.0)
        addrs = np.arange(0, 8 * 32, 32, dtype=np.uint64)
        h.access_stream(addrs)          # fills L2, overflows L1
        lat = h.access_stream(addrs[:1])
        assert lat[0] == 10.0           # L1 miss, L2 hit

    def test_l3_tier(self):
        h = MultiLevelCache(Cache(1024, 32, 4), Cache(2048, 64, 4),
                            Cache(1 << 16, 256, 8), 10.0, 36.0, 250.0)
        lat = h.access_stream(np.array([0], dtype=np.uint64))
        assert lat[0] == 250.0
        # Evict from L1+L2 but not L3, then re-access.
        filler = np.arange(64, 64 + 4096 * 64, 64, dtype=np.uint64)
        h.access_stream(filler)
        lat2 = h.access_stream(np.array([0], dtype=np.uint64))
        assert lat2[0] in (36.0, 250.0)  # L3 hit unless L3 also evicted
