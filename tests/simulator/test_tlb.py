"""Tests for the fully-associative LRU TLB."""

import numpy as np
import pytest

from repro.simulator.tlb import Tlb


class TestGeometry:
    def test_entries_from_reach(self):
        assert Tlb(512 * 1024).entries == 128
        assert Tlb(2048 * 1024).entries == 512

    def test_minimum_one_entry(self):
        assert Tlb(100).entries == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Tlb(0)


class TestLru:
    def test_cold_then_hot(self):
        t = Tlb(8 * 4096)
        assert not t.access(0)
        assert t.access(4095)  # same page
        assert not t.access(4096)  # next page

    def test_eviction_is_lru(self):
        t = Tlb(2 * 4096)  # 2 entries
        t.access(0 * 4096)
        t.access(1 * 4096)
        t.access(0 * 4096)      # page 0 now MRU
        t.access(2 * 4096)      # evicts page 1
        assert t.access(0 * 4096)
        assert not t.access(1 * 4096)

    def test_stats(self):
        t = Tlb(4 * 4096)
        t.access(0)
        t.access(0)
        assert t.stats.accesses == 2 and t.stats.misses == 1

    def test_reset(self):
        t = Tlb(4 * 4096)
        t.access(0)
        t.reset()
        assert not t.access(0)


class TestStream:
    def test_matches_scalar(self, rng):
        addrs = rng.integers(0, 1 << 26, 400).astype(np.uint64)
        a, b = Tlb(64 * 4096), Tlb(64 * 4096)
        stream = a.access_stream(addrs)
        scalar = np.array([b.access(int(x)) for x in addrs])
        np.testing.assert_array_equal(stream, scalar)

    def test_working_set_within_reach_all_hits(self):
        t = Tlb(128 * 4096)
        pages = np.arange(64, dtype=np.uint64) * 4096
        t.access_stream(pages)
        assert t.access_stream(pages).all()

    def test_larger_reach_fewer_misses(self, rng):
        addrs = (rng.zipf(1.4, 5000) * 4096 % (1 << 30)).astype(np.uint64)
        small = Tlb(128 * 4096)
        large = Tlb(512 * 4096)
        m_s = int((~small.access_stream(addrs)).sum())
        m_l = int((~large.access_stream(addrs)).sum())
        assert m_l <= m_s


def _assert_stream_equals_scalar(reach, chunks):
    """``access_stream`` over ``chunks`` leaves the hits, stats and LRU order
    that calling ``access`` on every address does."""
    a, b = Tlb(reach), Tlb(reach)
    for addrs in chunks:
        stream_hits = a.access_stream(addrs)
        assert stream_hits.dtype == bool and stream_hits.shape == addrs.shape
        np.testing.assert_array_equal(
            stream_hits, np.array([b.access(int(x)) for x in addrs], dtype=bool))
    assert (a.stats.accesses, a.stats.misses) == (b.stats.accesses, b.stats.misses)
    assert list(a._map) == list(b._map)


class TestStreamWithRepeats:
    """The stream kernel collapses back-to-back accesses to one page."""

    @pytest.mark.parametrize("reach", [4096, 4 * 4096, 64 * 4096])
    def test_pc_like_stream(self, rng, reach):
        # Consecutive 4-byte PCs with a jump of up to 64 pages about every
        # seventh instruction.
        steps = np.where(rng.random(20000) < 1 / 7,
                         rng.integers(-(1 << 16), 1 << 16, 20000) * 4, 4)
        addrs = (1 << 28) + np.cumsum(steps).astype(np.uint64)
        _assert_stream_equals_scalar(reach, [addrs])

    @pytest.mark.parametrize("reach", [4096, 4 * 4096, 64 * 4096])
    def test_next_call_starts_on_last_page(self, rng, reach):
        pages = np.repeat(rng.integers(0, 96, 600), rng.integers(1, 9, 600))
        addrs = (pages * 4096 + rng.integers(0, 4096, pages.size)).astype(np.uint64)
        chunks = np.split(addrs, [700, 1400])
        chunks[1] = np.concatenate([chunks[0][-1:], chunks[1]])
        chunks[2] = np.concatenate([chunks[1][-1:] ^ np.uint64(1), chunks[2]])  # same page
        _assert_stream_equals_scalar(reach, chunks)

    def test_empty_stream(self):
        empty = np.array([], dtype=np.uint64)
        t = Tlb(4 * 4096)
        hits = t.access_stream(empty)
        assert hits.shape == (0,) and hits.dtype == bool
        assert (t.stats.accesses, t.stats.misses) == (0, 0)
        _assert_stream_equals_scalar(4 * 4096, [empty, np.array([0, 0, 4096], dtype=np.uint64),
                                                empty])
