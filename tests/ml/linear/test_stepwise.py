"""Tests for Enter / Forward / Backward / Stepwise predictor selection."""

import numpy as np
import pytest

from repro.ml.linear.stepwise import (
    select_backward,
    select_enter,
    select_forward,
    select_stepwise,
)


def _data(n=120, seed=0, junk=3):
    """y depends on x0, x1; the remaining columns are noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2 + junk))
    y = 1.0 + 3.0 * X[:, 0] + 2.0 * X[:, 1] + rng.normal(0, 0.3, n)
    return X, y


class TestEnter:
    def test_uses_all_predictors(self):
        X, y = _data()
        res = select_enter(X, y)
        assert res.selected == tuple(range(X.shape[1]))
        assert res.fit is not None


class TestForward:
    def test_finds_true_predictors(self):
        X, y = _data()
        res = select_forward(X, y)
        assert {0, 1} <= set(res.selected)

    def test_excludes_junk(self):
        X, y = _data()
        res = select_forward(X, y)
        junk_selected = set(res.selected) - {0, 1}
        assert len(junk_selected) <= 1  # alpha=0.05 allows occasional noise

    def test_pure_noise_selects_nothing_or_little(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        res = select_forward(X, y)
        assert len(res.selected) <= 1

    def test_history_records_additions(self):
        X, y = _data()
        res = select_forward(X, y)
        assert any(h.startswith("add") for h in res.history)


class TestBackward:
    def test_drops_junk_keeps_signal(self):
        X, y = _data()
        res = select_backward(X, y)
        assert {0, 1} <= set(res.selected)
        assert len(res.selected) <= 4

    def test_strong_model_drops_nothing_important(self):
        X, y = _data(junk=0)
        res = select_backward(X, y)
        assert set(res.selected) == {0, 1}

    def test_history_records_drops(self):
        X, y = _data(junk=4)
        res = select_backward(X, y)
        assert any(h.startswith("drop") for h in res.history)


class TestStepwise:
    def test_matches_backward_on_clean_problem(self):
        # Paper §4.3: "LR-S and LR-B methods converge to the same model".
        X, y = _data()
        s = select_stepwise(X, y)
        b = select_backward(X, y)
        assert {0, 1} <= set(s.selected)
        assert set(s.selected) <= set(b.selected) | {0, 1}

    def test_removal_after_addition(self):
        # x2 = x0 + x1 (+noise): once x0, x1 enter, x2 adds nothing.
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=150)
        x1 = rng.normal(size=150)
        x2 = x0 + x1 + rng.normal(0, 0.05, 150)
        X = np.column_stack([x2, x0, x1])
        y = 2.0 * x0 + 1.5 * x1 + rng.normal(0, 0.1, 150)
        res = select_stepwise(X, y)
        assert {1, 2} <= set(res.selected)
        assert 0 not in res.selected

    def test_empty_result_on_noise_is_valid(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        res = select_stepwise(X, y)
        if not res.selected:
            assert res.fit is None


class TestSelectionAgreement:
    def test_all_methods_recover_dominant_predictor(self):
        X, y = _data(junk=5)
        for select in (select_enter, select_forward, select_backward, select_stepwise):
            res = select(X, y)
            assert 0 in res.selected, select.__name__

    def test_selected_indices_sorted_and_unique(self):
        X, y = _data(junk=5)
        for select in (select_forward, select_backward, select_stepwise):
            res = select(X, y)
            assert list(res.selected) == sorted(set(res.selected)), select.__name__
