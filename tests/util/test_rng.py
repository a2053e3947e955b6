"""Tests for deterministic RNG stream management."""

import numpy as np
from hypothesis import given, strategies as st

from repro.util.rng import child_rng, stream_seed


class TestStreamSeed:
    def test_deterministic(self):
        assert stream_seed(42, "a", "b") == stream_seed(42, "a", "b")

    def test_differs_by_name(self):
        assert stream_seed(42, "a") != stream_seed(42, "b")

    def test_differs_by_root(self):
        assert stream_seed(1, "a") != stream_seed(2, "a")

    def test_name_order_matters(self):
        assert stream_seed(42, "a", "b") != stream_seed(42, "b", "a")

    def test_int_names_allowed(self):
        assert stream_seed(42, 1, 2) == stream_seed(42, 1, 2)

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=30))
    def test_always_in_64bit_range(self, root, name):
        s = stream_seed(root, name)
        assert 0 <= s < 2**64


class TestChildRng:
    def test_replayable(self):
        a = child_rng(7, "x").random(5)
        b = child_rng(7, "x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams_differ(self):
        a = child_rng(7, "x").random(5)
        b = child_rng(7, "y").random(5)
        assert not np.allclose(a, b)
