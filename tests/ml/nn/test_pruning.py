"""Tests for sensitivity computation and the pruning loop."""

import numpy as np
import pytest

from repro.ml.nn.lockstep import drive
from repro.ml.nn.network import MLP
from repro.ml.nn.pruning import hidden_unit_sensitivities, input_sensitivities, prune_steps
from repro.ml.nn.training import TrainingConfig, train


def _trained_net(n=60, seed=0, hidden=(8, 4)):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = 0.2 + 0.4 * X[:, 0] + 0.2 * X[:, 1] ** 2  # x2 is irrelevant
    net = MLP([3, *hidden, 1], rng)
    train(net, X, y, TrainingConfig(max_epochs=1500))
    return net, X, y


class TestInputSensitivities:
    def test_irrelevant_input_least_sensitive(self):
        net, X, y = _trained_net()
        sens = input_sensitivities(net, X, y)
        assert sens[2] == min(sens)

    def test_masked_input_reports_zero(self):
        net, X, y = _trained_net()
        net.mask_input(2)
        sens = input_sensitivities(net, X, y)
        assert sens[2] == 0.0

    def test_relevant_input_clearly_positive(self):
        net, X, y = _trained_net()
        sens = input_sensitivities(net, X, y)
        assert sens[0] > 10 * max(sens[2], 1e-12)


class TestHiddenSensitivities:
    def test_shape_per_layer(self):
        net, X, y = _trained_net(hidden=(8, 4))
        sens = hidden_unit_sensitivities(net, X, y)
        assert [s.shape[0] for s in sens] == [8, 4]

    def test_dead_unit_zero_sensitivity(self):
        net, X, y = _trained_net(hidden=(6,))
        net.weights[1][3, :] = 0.0  # silence unit 2's output (bias row offset)
        sens = hidden_unit_sensitivities(net, X, y)
        assert sens[0][2] == pytest.approx(0.0, abs=1e-12)


class TestPruneNetwork:
    def test_prunes_without_degrading(self):
        net, X, y = _trained_net(hidden=(10, 5))
        rng = np.random.default_rng(1)
        Xv = rng.random((25, 3))
        yv = 0.2 + 0.4 * Xv[:, 0] + 0.2 * Xv[:, 1] ** 2
        before = net.loss(Xv, yv)
        outcome = drive(prune_steps(
            net, X, y, Xv, yv,
            TrainingConfig(max_epochs=300, patience=60),
            tolerance=0.05,
        ))
        assert outcome.removed_hidden + outcome.removed_inputs > 0
        assert outcome.val_loss <= before * 1.05 + 1e-9

    def test_result_network_is_smaller(self):
        net, X, y = _trained_net(hidden=(10, 5))
        rng = np.random.default_rng(2)
        Xv = rng.random((20, 3))
        yv = 0.2 + 0.4 * Xv[:, 0] + 0.2 * Xv[:, 1] ** 2
        n0 = net.n_params
        outcome = drive(prune_steps(
            net, X, y, Xv, yv, TrainingConfig(max_epochs=200, patience=40)
        ))
        pruned_params = outcome.net.n_params
        if outcome.removed_hidden:
            assert pruned_params < n0

    def test_steps_log_kept(self):
        net, X, y = _trained_net(hidden=(8,))
        outcome = drive(prune_steps(
            net, X, y, X, y, TrainingConfig(max_epochs=100, patience=30)))
        assert isinstance(outcome.steps, list)
