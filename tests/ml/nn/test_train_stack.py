"""Replica-stacked training: a stack of R networks trained by one
``train_stack`` call must end bit for bit where R separate ``train`` calls
leave them — weights, loss history, epochs run, early stop and best
validation loss — including replicas that stop at different epochs and a
replica that diverges."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ml.nn.training as training
from repro.errors import NumericalError
from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, train, train_replicas, train_stack
from repro.obs.metrics import default_registry


def _target(X):
    return 0.2 + 0.5 * X[:, 0] * X[:, 1] + 0.1 * X[:, 2]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.random((40, 3))
    Xv = rng.random((15, 3))
    return X, _target(X), Xv, _target(Xv)


@pytest.fixture
def constants(monkeypatch):
    """Set training-module constants for one test (restored afterwards)."""
    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(training, name, value)
    return patch


def _nets(seeds, sizes=(3, 6, 1), **kw):
    return [MLP(list(sizes), np.random.default_rng(s), **kw) for s in seeds]


def _assert_same(stacked, sequential, stacked_results, sequential_results):
    for a, b in zip(stacked, sequential):
        assert a.layer_sizes == b.layer_sizes
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
    for ra, rb in zip(stacked_results, sequential_results):
        assert ra.loss_history == rb.loss_history
        assert ra.epochs_run == rb.epochs_run
        assert ra.stopped_early == rb.stopped_early
        assert ra.best_val_loss == rb.best_val_loss
        assert ra.final_train_loss == rb.final_train_loss


def _run_both(nets, X, y, cfg, Xv=None, yv=None):
    clones = [net.clone() for net in nets]
    stacked = train_stack(nets, X, y, cfg, Xv, yv)
    sequential = [train(net, X, y, cfg, Xv, yv) for net in clones]
    _assert_same(nets, clones, stacked, sequential)
    return stacked


RPROP = TrainingConfig(max_epochs=150, patience=25)
GD = TrainingConfig(optimizer="gd", max_epochs=95, patience=25, learning_rate=0.3)


class TestStackEqualsSequential:
    @pytest.mark.parametrize("cfg, seeds", [(RPROP, [0, 2, 10]), (GD, [6, 9, 0])],
                             ids=["rprop", "gd"])
    def test_staggered_early_stops_and_one_full_run(self, data, cfg, seeds):
        X, y, Xv, yv = data
        results = _run_both(_nets(seeds), X, y, cfg, Xv, yv)
        epochs = [r.epochs_run for r in results]
        # Two replicas stop early at different epochs and leave the stack;
        # the third runs to max_epochs.
        assert results[0].stopped_early and results[1].stopped_early
        assert epochs[0] != epochs[1]
        assert epochs[2] == cfg.max_epochs and not results[2].stopped_early

    @pytest.mark.parametrize("cfg", [
        TrainingConfig(max_epochs=60),
        TrainingConfig(optimizer="gd", max_epochs=60, learning_rate=0.3),
        TrainingConfig(optimizer="gd", max_epochs=60, learning_rate=0.15,
                       adaptive_rate=False),
    ], ids=["rprop", "gd-bold-driver", "gd-constant"])
    def test_without_validation(self, data, cfg):
        X, y, _, _ = data
        results = _run_both(_nets([1, 4, 5]), X, y, cfg)
        assert all(r.epochs_run == 60 and r.best_val_loss is None for r in results)

    def test_different_input_masks(self, data):
        X, y, Xv, yv = data
        nets = _nets([3, 7])
        nets[1].mask_input(2)
        _run_both(nets, X, y, RPROP, Xv, yv)

    def test_sigmoid_output_two_hidden_layers(self, data):
        X, y, Xv, yv = data
        nets = _nets([2, 8], sizes=(3, 5, 3, 1), output="sigmoid")
        _run_both(nets, X, y, RPROP, Xv, yv)

    def test_rejects_mixed_topologies(self, data):
        X, y, _, _ = data
        nets = [MLP([3, 6, 1], np.random.default_rng(0)),
                MLP([3, 5, 1], np.random.default_rng(1))]
        with pytest.raises(ValueError, match="one topology"):
            train_stack(nets, X, y, RPROP)

    def test_rejects_empty_stack(self, data):
        X, y, _, _ = data
        with pytest.raises(ValueError):
            train_stack([], X, y, RPROP)


class TestKernelMatchesReferenceBackprop:
    """One momentum-free gradient step equals ``w - lr * g`` with ``g`` from
    the two-dimensional reference ``MLP.loss_and_grad``."""

    @pytest.mark.parametrize("output", ["linear", "sigmoid"])
    def test_first_step(self, data, output, constants):
        constants(MOMENTUM=0.0)
        X, y, _, _ = data
        net = MLP([3, 5, 3, 1], np.random.default_rng(9), output=output)
        net.mask_input(1)
        loss, grads = net.loss_and_grad(X, y)
        before = [w.copy() for w in net.weights]
        cfg = TrainingConfig(optimizer="gd", max_epochs=1, learning_rate=0.25,
                             adaptive_rate=False)
        result = train(net, X, y, cfg)
        assert result.loss_history == [loss]
        for w, w0, g in zip(net.weights, before, grads):
            np.testing.assert_array_equal(w, w0 + -(0.25 * g))


class TestStackDivergence:
    CFG = TrainingConfig(optimizer="gd", max_epochs=100, learning_rate=0.8,
                         adaptive_rate=False)

    @pytest.fixture(autouse=True)
    def _bound(self, constants):
        constants(DIVERGENCE_FACTOR=100.0)

    def _sequential_error(self, seed, X, y):
        with pytest.raises(NumericalError) as ei:
            train(_nets([seed])[0], X, y, self.CFG)
        return ei.value

    def test_first_diverging_epoch_raises_lowest_index_once(self, data):
        X, y, _, _ = data
        # Seed 1 trains cleanly; seeds 7 and 0 both diverge at epoch 5
        # with different losses, so the raise must name replica 1 (seed 7).
        clean = train(_nets([1])[0], X, y, self.CFG)
        assert clean.epochs_run == 100
        first = self._sequential_error(7, X, y)
        second = self._sequential_error(0, X, y)
        assert first.context["epoch"] == second.context["epoch"]
        assert first.context["loss"] != second.context["loss"]

        counter = default_registry().counter("robust.nn.divergence")
        before = counter.value
        with pytest.raises(NumericalError) as ei:
            train_stack(_nets([1, 7, 0]), X, y, self.CFG)
        assert counter.value == before + 1
        assert ei.value.cause == "nn-divergence"
        assert ei.value.context == first.context
        assert str(ei.value) == str(first)

    def test_earliest_divergence_wins_over_lower_index(self, data):
        X, y, _, _ = data
        late = self._sequential_error(3, X, y)
        early = self._sequential_error(2, X, y)
        assert early.context["epoch"] < late.context["epoch"]
        with pytest.raises(NumericalError) as ei:
            train_stack(_nets([1, 3, 2]), X, y, self.CFG)
        assert ei.value.context == early.context


def _per_replica_data(R, n=40, n_val=15):
    """R different training and validation sets of one shape."""
    rng = np.random.default_rng(100)
    X, Xv = rng.random((R, n, 3)), rng.random((R, n_val, 3))
    return X, np.stack([_target(x) for x in X]), Xv, np.stack([_target(x) for x in Xv])


class TestPerReplicaData:
    """A stack whose replicas each train on their own data equals R
    separate ``train`` calls, each on its slice."""

    def _run_both(self, nets, X, y, cfg, Xv=None, yv=None):
        clones = [net.clone() for net in nets]
        stacked = train_stack(nets, X, y, cfg, Xv, yv)
        sequential = [train(net, X[r], y[r], cfg,
                            None if Xv is None else Xv[r], None if yv is None else yv[r])
                      for r, net in enumerate(clones)]
        _assert_same(nets, clones, stacked, sequential)
        return stacked

    @pytest.mark.parametrize("cfg", [RPROP, GD], ids=["rprop", "gd"])
    def test_staggered_early_stops(self, cfg):
        X, y, Xv, yv = _per_replica_data(4)
        results = self._run_both(_nets([1, 3, 5, 7]), X, y, cfg, Xv, yv)
        stopped = [r.epochs_run for r in results if r.stopped_early]
        # Replicas leave the stack at different epochs; one runs to the end.
        assert len(set(stopped)) >= 2
        assert results[3].epochs_run == cfg.max_epochs and not results[3].stopped_early

    @pytest.mark.parametrize("cfg", [RPROP, GD], ids=["rprop", "gd"])
    def test_masked_inputs(self, cfg):
        X, y, Xv, yv = _per_replica_data(3)
        nets = _nets([3, 7, 1])
        nets[1].mask_input(2)
        nets[2].mask_input(0)
        self._run_both(nets, X, y, cfg, Xv, yv)

    def test_without_validation(self):
        X, y, _, _ = _per_replica_data(3)
        results = self._run_both(_nets([1, 4, 5]), X, y, TrainingConfig(max_epochs=60))
        assert all(r.best_val_loss is None for r in results)

    def test_list_of_slices_equals_array(self):
        X, y, Xv, yv = _per_replica_data(2)
        nets, clones = _nets([1, 2]), _nets([1, 2])
        a = train_stack(nets, X, y, RPROP, Xv, yv)
        b = train_stack(clones, list(X), list(y), RPROP, list(Xv), list(yv))
        _assert_same(nets, clones, a, b)

    def test_ragged_slices_raise(self):
        X, y, Xv, yv = _per_replica_data(2)
        with pytest.raises(ValueError, match="share one shape"):
            train_stack(_nets([1, 2]), [X[0], X[1][:-3]], [y[0], y[1][:-3]], RPROP)
        with pytest.raises(ValueError, match="share one shape"):
            train_stack(_nets([1, 2]), X, y, RPROP, [Xv[0], Xv[1][:-1]], list(yv))

    def test_shapes_must_match_the_stack(self):
        X, y, Xv, yv = _per_replica_data(3)
        with pytest.raises(ValueError, match="one slice per network"):
            train_stack(_nets([1, 2]), X, y, RPROP)
        with pytest.raises(ValueError, match=r"\(R, n, k\)"):
            train_stack(_nets([1, 2, 3]), X, y, RPROP, Xv[0], yv[0])
        with pytest.raises(ValueError):
            train_stack(_nets([1, 2, 3]), X, y[:, :-1], RPROP)


class TestDivergenceIsolation:
    """A replica that diverges leaves the stack; the others end exactly as
    they would alone."""

    CFG = TrainingConfig(optimizer="gd", max_epochs=60, learning_rate=0.3, patience=15)

    @pytest.fixture(autouse=True)
    def _bounds(self, constants):
        constants(MAX_RATE=0.8, DIVERGENCE_FACTOR=100.0)

    def _data(self):
        X, y, Xv, yv = _per_replica_data(3)
        X[1] *= 30.0  # replica 1's inputs make its training explode
        return X, y, Xv, yv

    def test_others_train_on_unchanged(self):
        from repro.ml.nn.training import train_replicas

        X, y, Xv, yv = self._data()
        nets = _nets([0, 1, 2], hidden="linear")
        alone = _nets([0, 1, 2], hidden="linear")
        with pytest.raises(NumericalError) as ei:
            train(alone[1], X[1], y[1], self.CFG, Xv[1], yv[1])
        results, failures = train_replicas(nets, X, y, self.CFG, Xv, yv)
        assert [i for i, _ in failures] == [1]
        assert failures[0][1].context == ei.value.context
        assert results[1] is None
        for r in (0, 2):
            expected = train(alone[r], X[r], y[r], self.CFG, Xv[r], yv[r])
            _assert_same([nets[r]], [alone[r]], [results[r]], [expected])

    def test_validation_divergence_is_isolated(self):
        from repro.ml.nn.training import train_replicas

        X, y, Xv, yv = _per_replica_data(3)
        Xv[2, 0, 0] = np.nan
        nets, alone = _nets([0, 1, 2]), _nets([0, 1, 2])
        with pytest.raises(NumericalError, match="validation loss went non-finite") as ei:
            train(alone[2], X[2], y[2], RPROP, Xv[2], yv[2])
        results, failures = train_replicas(nets, X, y, RPROP, Xv, yv)
        assert [(i, str(e)) for i, e in failures] == [(2, str(ei.value))]
        for r in (0, 1):
            expected = train(alone[r], X[r], y[r], RPROP, Xv[r], yv[r])
            _assert_same([nets[r]], [alone[r]], [results[r]], [expected])

    def test_train_replicas_counts_nothing(self):
        from repro.ml.nn.training import train_replicas

        X, y, Xv, yv = self._data()
        counter = default_registry().counter("robust.nn.divergence")
        before = counter.value
        train_replicas(_nets([0, 1, 2], hidden="linear"), X, y, self.CFG, Xv, yv)
        assert counter.value == before


def _against_lone_calls(nets, X, y, cfg, Xv=None, yv=None):
    """Train ``nets`` as one stack on per-replica data and each clone alone;
    assert every outcome, error and weight byte agrees. Returns the stack's
    results and failures."""
    alone = [net.clone() for net in nets]
    results, failures = train_replicas(nets, X, y, cfg, Xv, yv)
    errors = dict(failures)
    assert len(errors) == len(failures)
    for r, (net, lone) in enumerate(zip(nets, alone)):
        try:
            expected = train(lone, X[r], y[r], cfg, None if Xv is None else Xv[r],
                             None if yv is None else yv[r])
        except NumericalError as exc:
            assert results[r] is None
            got = errors.pop(r)
            # repr, so that a NaN loss in the context compares equal.
            assert repr((str(got), got.cause, got.context)) == \
                repr((str(exc), exc.cause, exc.context))
        else:
            assert r not in errors
            assert results[r] == expected
        assert [w.tobytes() for w in net.weights] == [w.tobytes() for w in lone.weights]
    assert not errors
    # Failures are recorded in detection order: by epoch, then by index.
    order = [(e.context["epoch"], i) for i, e in failures]
    assert order == sorted(order)
    return results, failures


# Infinite and NaN inputs warn in matmul and in the input mask's multiply.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBookkeepingAgainstLoneCalls:
    """The per-replica scalars (divergence bound, best validation loss,
    patience) and the snapshot rows copied on improvement: random stacks,
    and one case per rare path, against lone ``train`` calls."""

    CFG = TrainingConfig(max_epochs=80, patience=20)

    @pytest.fixture(autouse=True)
    def _bounds(self, constants):
        constants(MAX_RATE=0.8, RPROP_INIT=0.2, DIVERGENCE_FACTOR=20.0)

    def test_max_epochs_with_validation_keeps_best_loss(self):
        X, y, Xv, yv = _per_replica_data(6)
        results, failures = _against_lone_calls(_nets(range(6), hidden="linear"),
                                                X, y, self.CFG, Xv, yv)
        assert not failures
        # Some replicas run to max_epochs, where the final finish reads their
        # best validation loss; the others stop early.
        full = [r.epochs_run for r in results if not r.stopped_early]
        assert full == [80] * len(full) and 0 < len(full) < len(results)
        assert all(r.best_val_loss is not None for r in results)

    def test_rprop_divergence_after_a_snapshot(self):
        X, y, Xv, yv = _per_replica_data(6)
        X[5] *= 30.0
        results, failures = _against_lone_calls(_nets(range(6), hidden="linear"),
                                                X, y, self.CFG, Xv, yv)
        # Epoch 1 always improves on an infinite best loss, so replica 5
        # took a snapshot before its training loss broke the bound.
        assert [(i, e.context["epoch"]) for i, e in failures] == [(5, 2)]
        assert results[5] is None and all(r is not None for r in results[:5])

    def test_non_finite_validation_loss(self):
        X, y, Xv, yv = _per_replica_data(4)
        Xv[1, 3, 2] = np.inf
        Xv[2, 0, 0] = np.nan
        results, failures = _against_lone_calls(_nets(range(4), hidden="linear"),
                                                X, y, self.CFG, Xv, yv)
        assert [(i, e.context["epoch"]) for i, e in failures] == [(1, 1), (2, 1)]
        assert all("validation loss went non-finite" in str(e) for _, e in failures)
        assert results[0] is not None and results[3] is not None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 6),
           optimizer=st.sampled_from(["rprop", "gd"]), with_val=st.booleans())
    def test_random_stacks(self, seed, R, optimizer, with_val):
        rng = np.random.default_rng(seed)
        n, n_val = int(rng.integers(2, 30)), int(rng.integers(1, 9))
        X, Xv = rng.random((R, n, 3)), rng.random((R, n_val, 3))
        y, yv = np.stack([_target(x) for x in X]), np.stack([_target(x) for x in Xv])
        poisoned = []
        for r in range(R):
            kind = rng.integers(4)
            if kind == 1:
                X[r] *= 30.0  # may diverge, at any epoch
            elif kind == 2:
                Xv[r, rng.integers(n_val), rng.integers(3)] = np.nan
                poisoned.append(r)
            elif kind == 3:
                Xv[r, rng.integers(n_val), rng.integers(3)] = np.inf  # finite under tanh
        cfg = TrainingConfig(optimizer=optimizer, max_epochs=int(rng.integers(5, 60)),
                             patience=int(rng.integers(1, 70)), learning_rate=0.3)
        nets = _nets(rng.integers(1000, size=R).tolist(),
                     hidden=rng.choice(["linear", "tanh"]))
        for net in nets:
            if rng.random() < 0.3:
                net.mask_input(int(rng.integers(3)))
        if not with_val:
            _against_lone_calls(nets, X, y, cfg)
            return
        _, failures = _against_lone_calls(nets, X, y, cfg, Xv, yv)
        # A NaN validation input fails its replica at the first epoch.
        assert all((r, 1) in [(i, e.context["epoch"]) for i, e in failures] for r in poisoned)
