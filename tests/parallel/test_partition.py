"""Tests for deterministic work partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro.parallel.partition import chunk_bounds


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_uneven_split_front_loads(self):
        assert chunk_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_chunks_than_items(self):
        assert chunk_bounds(2, 5) == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert chunk_bounds(0, 3) == []

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)

    @given(st.integers(0, 500), st.integers(1, 32))
    def test_covers_everything_once(self, n, k):
        bounds = chunk_bounds(n, k)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(n))

    @given(st.integers(1, 500), st.integers(1, 32))
    def test_sizes_differ_by_at_most_one(self, n, k):
        sizes = [hi - lo for lo, hi in chunk_bounds(n, k)]
        assert max(sizes) - min(sizes) <= 1
