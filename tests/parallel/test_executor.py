"""Tests for the executor abstraction (serial / process-pool)."""

import math

import pytest

from repro.parallel.executor import ProcessExecutor, SerialExecutor


def _square(x):
    return x * x


class TestSerialExecutor:
    def test_map_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_input(self):
        assert SerialExecutor().map(_square, []) == []

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [2]) == [4]


class TestProcessExecutor:
    def test_matches_serial(self):
        items = list(range(50))
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, items) == SerialExecutor().map(_square, items)

    def test_single_item_fast_path(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, [5]) == [25]
            assert ex._pool is None  # pool never started

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_chunksize_heuristic(self):
        ex = ProcessExecutor(max_workers=4)
        assert ex._pick_chunksize(1600) == math.ceil(1600 / 16)
        assert ex._pick_chunksize(1) == 1

    def test_reuse_after_map(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert ex.map(_square, [4, 5, 6]) == [16, 25, 36]
