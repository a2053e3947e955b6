"""Tests for Rprop / gradient-descent training and early stopping."""

import numpy as np
import pytest

from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, holdout_split, train


def _problem(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = 0.2 + 0.5 * X[:, 0] * X[:, 1]  # smooth nonlinear target in [0.2, 0.7]
    return X, y


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"optimizer": "adam"},
            {"max_epochs": 0},
            {"learning_rate": 0.0},
            {"patience": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            TrainingConfig(**kw)


class TestHoldoutSplit:
    def test_partition(self, rng):
        tr, va = holdout_split(20, 0.25, rng)
        assert len(tr) + len(va) == 20
        assert set(tr.tolist()).isdisjoint(va.tolist())

    def test_zero_fraction(self, rng):
        tr, va = holdout_split(10, 0.0, rng)
        assert len(tr) == 10 and len(va) == 0

    def test_validation_never_everything(self, rng):
        tr, va = holdout_split(3, 0.9, rng)
        assert len(tr) >= 1

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            holdout_split(10, 1.0, rng)


class TestRpropTraining:
    def test_loss_decreases(self):
        X, y = _problem()
        net = MLP([2, 8, 1], np.random.default_rng(1))
        initial = net.loss(X, y)
        res = train(net, X, y, TrainingConfig(max_epochs=400))
        assert res.final_train_loss < initial * 0.1

    def test_fits_tightly(self):
        X, y = _problem()
        net = MLP([2, 8, 1], np.random.default_rng(1))
        train(net, X, y, TrainingConfig(max_epochs=2000))
        assert net.loss(X, y) < 1e-4

    def test_history_recorded(self):
        X, y = _problem()
        net = MLP([2, 4, 1], np.random.default_rng(1))
        res = train(net, X, y, TrainingConfig(max_epochs=50))
        assert len(res.loss_history) == res.epochs_run == 50


class TestGdTraining:
    def test_constant_rate_converges_on_easy_problem(self):
        X, y = _problem()
        net = MLP([2, 6, 1], np.random.default_rng(2))
        initial = net.loss(X, y)
        cfg = TrainingConfig(
            optimizer="gd", max_epochs=800, learning_rate=0.3,
            adaptive_rate=False,
        )
        res = train(net, X, y, cfg)
        assert res.final_train_loss < initial * 0.3

    def test_bold_driver_also_converges(self):
        X, y = _problem()
        net = MLP([2, 6, 1], np.random.default_rng(3))
        initial = net.loss(X, y)
        cfg = TrainingConfig(
            optimizer="gd", max_epochs=600, learning_rate=0.2,
            adaptive_rate=True,
        )
        res = train(net, X, y, cfg)
        assert res.final_train_loss < initial * 0.2


class TestEarlyStopping:
    def test_stops_before_max_epochs(self):
        X, y = _problem(n=40)
        rng = np.random.default_rng(4)
        Xv = rng.random((15, 2))
        yv = 0.2 + 0.5 * Xv[:, 0] * Xv[:, 1]
        net = MLP([2, 16, 1], rng)
        cfg = TrainingConfig(max_epochs=10_000, patience=40)
        res = train(net, X, y, cfg, Xv, yv)
        assert res.stopped_early
        assert res.epochs_run < 10_000
        assert res.best_val_loss is not None

    def test_restores_best_weights(self):
        X, y = _problem(n=30)
        rng = np.random.default_rng(5)
        Xv = rng.random((10, 2))
        yv = 0.2 + 0.5 * Xv[:, 0] * Xv[:, 1]
        net = MLP([2, 12, 1], rng)
        res = train(net, X, y, TrainingConfig(max_epochs=3000, patience=60), Xv, yv)
        # After restore, validation loss equals the best seen (within fp noise).
        assert net.loss(Xv, yv) == pytest.approx(res.best_val_loss, rel=1e-9)

    def test_no_validation_runs_to_cap(self):
        X, y = _problem(n=30)
        net = MLP([2, 4, 1], np.random.default_rng(6))
        res = train(net, X, y, TrainingConfig(max_epochs=30))
        assert res.epochs_run == 30
        assert not res.stopped_early
        assert res.best_val_loss is None
