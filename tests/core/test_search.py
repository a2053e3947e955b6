"""Tests for surrogate-guided search quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.models import model_builders
from repro.core.search import (
    _average_ranks,
    evaluate_search_quality,
    rank_correlation,
    regret,
    top_k_recall,
)


class TestRegret:
    def test_perfect_prediction_zero_regret(self):
        y = np.array([3.0, 1.0, 2.0])
        assert regret(y, y) == pytest.approx(0.0)

    def test_wrong_pick_costs(self):
        actual = np.array([1.0, 2.0])
        predicted = np.array([2.0, 1.0])  # picks index 1 (actual 2.0)
        assert regret(predicted, actual) == pytest.approx(1.0)

    def test_maximize_mode(self):
        actual = np.array([1.0, 2.0])
        predicted = np.array([2.0, 1.0])  # argmax -> index 0 (actual 1.0)
        assert regret(predicted, actual, minimize=False) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            regret(np.array([1.0]), np.array([1.0, 2.0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100), min_size=2, max_size=30))
    def test_nonnegative(self, values):
        y = np.asarray(values)
        pred = y[::-1].copy()
        assert regret(pred, y) >= 0.0


class TestTopKRecall:
    def test_perfect(self):
        y = np.arange(10, dtype=float)
        assert top_k_recall(y, y, 3) == pytest.approx(1.0)

    def test_reversed_predictions(self):
        y = np.arange(10, dtype=float)
        assert top_k_recall(-y, y, 3) == pytest.approx(0.0)

    def test_k_bounds(self):
        y = np.arange(5, dtype=float)
        with pytest.raises(ValueError):
            top_k_recall(y, y, 0)
        with pytest.raises(ValueError):
            top_k_recall(y, y, 6)

    def test_in_unit_interval(self, rng):
        y = rng.random(40)
        pred = rng.random(40)
        r = top_k_recall(pred, y, 10)
        assert 0.0 <= r <= 1.0


class TestRankCorrelation:
    def test_identity(self):
        y = np.array([3.0, 1.0, 2.0, 5.0])
        assert rank_correlation(y, y) == pytest.approx(1.0)

    def test_reversal(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(-y, y) == pytest.approx(-1.0)

    def test_monotone_transform_invariant(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(np.exp(y), y) == pytest.approx(1.0)

    def test_constant_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rank_correlation(np.ones(3), y) == pytest.approx(0.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            rank_correlation(np.array([1.0]), np.array([1.0]))

    def test_nan_propagates(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.isnan(rank_correlation(np.array([1.0, np.nan, 2.0]), y))


# Few distinct values so ties are the rule, not the exception; signed
# zeros compare equal and must share a rank.
_TIE_HEAVY = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf])


class TestAverageRanksMatchRankdata:
    """``rank_correlation`` ranks with numpy instead of importing
    ``scipy.stats``; the ranks must equal ``scipy.stats.rankdata`` (average
    method, ``nan_policy="propagate"``) bit for bit."""

    @staticmethod
    def assert_same_bits(x):
        from scipy.stats import rankdata

        ours, theirs = _average_ranks(x), rankdata(x)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TIE_HEAVY, min_size=1, max_size=60),
           st.lists(st.integers(0, 59), max_size=3))
    def test_heavy_ties_and_nans(self, values, nan_at):
        x = np.array(values)
        x[[i for i in nan_at if i < x.size]] = np.nan
        self.assert_same_bits(x)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=200))
    def test_arbitrary_floats(self, values):
        self.assert_same_bits(np.array(values))

    def test_rank_correlation_equals_rankdata_spearman(self):
        from scipy.stats import rankdata

        rng = np.random.default_rng(27)
        for _ in range(50):
            n = int(rng.integers(2, 400))
            pred = rng.integers(0, 6, n).astype(float)
            actual = np.round(pred + rng.normal(scale=2.0, size=n))
            rp, ra = rankdata(pred), rankdata(actual)
            rp -= rp.mean()
            ra -= ra.mean()
            expected = float((rp @ ra) / float(np.sqrt((rp @ rp) * (ra @ ra))))
            assert rank_correlation(pred, actual) == expected


class TestEvaluateSearchQuality:
    def test_surrogate_finds_near_optimal_designs(self, space_dataset, rng):
        space = space_dataset("mcf")
        sample, _ = space.sample(138, rng)  # 3%
        model = model_builders(("NN-E",), seed=4)["NN-E"]()
        model.fit(sample)
        q = evaluate_search_quality(model, space)
        # The surrogate's pick loses at most a few percent vs the optimum,
        # and it orders the space nearly correctly.
        assert q.regret < 0.10
        assert q.rank_correlation > 0.9
        assert q.top_50_recall > 0.3
        assert q.n_designs == 4608
