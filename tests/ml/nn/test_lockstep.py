"""Lockstep builds: requests from many builds train as shared stacks, and
every network, result, error and counter ends as the builds run one at a
time would leave it."""

import numpy as np
import pytest

import repro.ml.nn.lockstep as lockstep
import repro.ml.nn.model as model_mod
from repro.errors import NumericalError
from repro.ml.nn.lockstep import (
    TrainRequest,
    run_lockstep,
    side_by_side,
    train_requests,
    train_step,
)
from repro.ml.nn.methods import NnMethod, build_quick
from repro.ml.nn.model import NeuralNetworkModel
from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, train, train_stack
from repro.ml.selection import estimate_error
from repro.obs.metrics import default_registry
from repro.specdata.generator import generate_family_records
from repro.specdata.schema import records_to_dataset
from repro.util.stats import mean_absolute_percentage_error

#: gd that stops early on tame data and diverges by epoch 3 on inputs
#: scaled up 30x (a linear hidden layer lets the loss explode).
CFG = TrainingConfig(optimizer="gd", max_epochs=60, learning_rate=0.3, max_rate=0.8,
                     patience=15, divergence_factor=100.0)


def _net(seed, n_in=3):
    return MLP([n_in, 4, 1], np.random.default_rng(seed), hidden="linear")


def _data(seed, n=40, n_val=12, scale=1.0):
    rng = np.random.default_rng(seed)
    X, Xv = rng.random((n, 3)), rng.random((n_val, 3))
    return X * scale, 0.2 + 0.5 * X[:, 0], Xv * scale, 0.2 + 0.5 * Xv[:, 0]


def _same(a, b, ra, rb):
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert (ra.loss_history, ra.epochs_run, ra.best_val_loss, ra.final_train_loss) == \
        (rb.loss_history, rb.epochs_run, rb.best_val_loss, rb.final_train_loss)


def _divergences():
    return default_registry().counter("robust.nn.divergence").value


def _restarts():
    return default_registry().counter("robust.nn.restarts").value


@pytest.fixture
def spy(monkeypatch):
    """Records the stack size of every kernel call ``train_requests`` makes."""
    sizes = []
    real = lockstep.train_replicas

    def recording(nets, *args):
        sizes.append(len(nets))
        return real(nets, *args)

    monkeypatch.setattr(lockstep, "train_replicas", recording)
    return sizes


class TestTrainRequests:
    def test_mixed_stack_isolates_the_diverging_request(self, spy):
        shared, wild, calm = _data(1), _data(2, scale=30.0), _data(3)
        pair = [_net(0), _net(1)]
        lone_wild, lone_calm = _net(2), _net(3)
        requests = [TrainRequest(pair, *shared[:2], CFG, *shared[2:]),
                    TrainRequest([lone_wild], *wild[:2], CFG, *wild[2:]),
                    TrainRequest([lone_calm], *calm[:2], CFG, *calm[2:])]
        before = _divergences()
        outcomes = train_requests(requests)
        assert spy == [4]  # one stack of four replicas
        assert _divergences() == before  # failures are counted by the builds they fail

        with pytest.raises(NumericalError) as ei:
            train(_net(2), *wild[:2], CFG, *wild[2:])
        assert isinstance(outcomes[1], NumericalError)
        assert str(outcomes[1]) == str(ei.value)
        alone_pair = [_net(0), _net(1)]
        expected = train_stack(alone_pair, *shared[:2], CFG, *shared[2:])
        for net, alone, got, want in zip(pair, alone_pair, outcomes[0], expected):
            _same(net, alone, got, want)
        alone = _net(3)
        _same(lone_calm, alone, outcomes[2][0], train(alone, *calm[:2], CFG, *calm[2:]))

    def test_groups_by_topology_config_and_shape(self, spy):
        X, y, Xv, yv = _data(1)
        other_cfg = TrainingConfig(optimizer="gd", max_epochs=30, learning_rate=0.3)
        requests = [
            TrainRequest([_net(0)], X, y, CFG, Xv, yv),
            TrainRequest([_net(1)], X[:-1], y[:-1], CFG, Xv, yv),  # other shape
            TrainRequest([_net(2)], X, y, other_cfg, Xv, yv),  # other config
            TrainRequest([MLP([3, 5, 1], np.random.default_rng(3), hidden="linear")],
                         X, y, CFG, Xv, yv),  # other topology
            TrainRequest([_net(4)], X, y, CFG, Xv, yv),  # joins the first
        ]
        outcomes = train_requests(requests)
        assert sorted(spy) == [1, 1, 1, 2]
        assert all(len(o) == 1 for o in outcomes)


class TestRunLockstep:
    @staticmethod
    def _build(seed, scale=1.0, n_nets=1):
        X, y, Xv, yv = _data(seed, scale=scale)
        nets = [_net(seed + k) for k in range(n_nets)]
        results = yield from train_step(nets, X, y, CFG, Xv, yv)
        return [r.epochs_run for r in results]

    def test_failed_build_counted_once_others_unchanged(self, spy):
        before = _divergences()
        # The middle build's request has two replicas; both diverge.
        values = run_lockstep([self._build(1), self._build(2, scale=30.0, n_nets=2),
                               self._build(3)])
        assert spy == [4]
        assert _divergences() == before + 1
        assert isinstance(values[1], NumericalError)
        for i, seed in ((0, 1), (2, 3)):
            X, y, Xv, yv = _data(seed)
            assert values[i] == [train(_net(seed), X, y, CFG, Xv, yv).epochs_run]


class TestSideBySide:
    @staticmethod
    def _chain(seed, steps, fail_at=None, log=None):
        """A sub-build of ``steps`` trainings; step ``fail_at`` diverges."""
        for step in range(steps):
            X, y, Xv, yv = _data(seed, scale=30.0 if step == fail_at else 1.0)
            if log is not None:
                log.append((seed, step))
            yield from train_step([_net(seed)], X, y, CFG, Xv, yv)
        return seed

    def _outer(self, chains):
        values = yield from side_by_side(chains)
        return values

    def test_values_in_order(self):
        (values,) = run_lockstep([self._outer([self._chain(s, 2) for s in (1, 2, 3)])])
        assert values == [1, 2, 3]

    def test_lowest_failing_chain_wins_after_lower_ones_finish(self):
        before = _divergences()
        log = []
        # Chain 1 fails at its first step, chain 0 only at its third: run
        # one after another, chain 0's failure would come first.
        chains = [self._chain(1, 4, fail_at=2, log=log), self._chain(2, 3, fail_at=0, log=log),
                  self._chain(3, 3, log=log)]
        (value,) = run_lockstep([self._outer(chains)])
        X, y, Xv, yv = _data(1, scale=30.0)
        with pytest.raises(NumericalError) as ei:
            train(_net(1), X, y, CFG, Xv, yv)
        assert isinstance(value, NumericalError) and str(value) == str(ei.value)
        assert _divergences() == before + 2  # the reference raise above, and the build
        assert (3, 1) not in log  # chain 2 is dropped once chain 1 fails

    def test_higher_chain_failure_raised_when_lower_ones_succeed(self):
        chains = [self._chain(1, 3), self._chain(2, 2, fail_at=1), self._chain(3, 2, fail_at=0)]
        (value,) = run_lockstep([self._outer(chains)])
        X, y, Xv, yv = _data(2, scale=30.0)
        with pytest.raises(NumericalError) as ei:
            train(_net(2), X, y, CFG, Xv, yv)
        assert str(value) == str(ei.value)


@pytest.fixture(scope="module")
def dataset():
    recs = [r for r in generate_family_records("opteron-2", seed=1) if r.year == 2005]
    return records_to_dataset(recs)


def _flaky(diverge_on):
    """NN-Q whose builds number ``diverge_on`` (counting from 1, in the
    order builds start) first train a request that diverges."""
    started = []

    @NnMethod
    def flaky(X, y, rng):
        started.append(len(started) + 1)
        if started[-1] in diverge_on:
            net = MLP([X.shape[1], 4, 1], np.random.default_rng(started[-1]), hidden="linear")
            yield from train_step([net], X * 30.0, y, CFG)
        return (yield from build_quick.steps(X, y, rng))

    return flaky


def _sequential(builder, train_ds, rng, n_reps=5):
    """The estimate as one fit per repetition, one after another."""
    errors = []
    for s, r in [train_ds.random_split_indices(0.5, rng) for _ in range(n_reps)]:
        model = builder().fit(train_ds.take(s))
        errors.append(mean_absolute_percentage_error(model.predict(train_ds.take(r)),
                                                     train_ds.take(r).target))
    return tuple(errors)


class TestHoldoutRestarts:
    def _both(self, monkeypatch, dataset, diverge_on, max_restarts=2):
        builder = lambda: NeuralNetworkModel(method="quick", seed=3, max_restarts=max_restarts)  # noqa: E731
        runs = []
        for estimate in (lambda: _sequential(builder, dataset, np.random.default_rng(5)),
                         lambda: estimate_error(builder, dataset, np.random.default_rng(5)).per_rep):
            monkeypatch.setitem(model_mod.NN_METHODS, "quick", ("NN-Q", _flaky(diverge_on)))
            before = (_divergences(), _restarts())
            try:
                outcome = estimate()
            except NumericalError as exc:
                outcome = exc
            runs.append((outcome, _divergences() - before[0], _restarts() - before[1]))
        return runs

    def test_forced_restart_matches_sequential(self, monkeypatch, dataset):
        # Build 3 is rep 2's first attempt in both runs; its restart succeeds.
        sequential, lockstep_run = self._both(monkeypatch, dataset, {3})
        assert lockstep_run == sequential
        assert sequential[1:] == (1, 1)
        monkeypatch.undo()
        clean = estimate_error(lambda: NeuralNetworkModel(method="quick", seed=3), dataset,
                               np.random.default_rng(5)).per_rep
        assert sequential[0][:2] == clean[:2] and sequential[0][3:] == clean[3:]
        assert sequential[0][2] != clean[2]  # rep 2 was rebuilt from its restart seed

    def test_lowest_failing_rep_raises(self, monkeypatch, dataset):
        # Without restarts, reps 1 and 3 fail; rep 1's error is raised.
        sequential, lockstep_run = self._both(monkeypatch, dataset, {2, 4}, max_restarts=0)
        assert isinstance(sequential[0], NumericalError)
        assert sequential[0].cause == "nn-restarts-exhausted"
        assert str(lockstep_run[0]) == str(sequential[0])
        assert str(lockstep_run[0].__cause__) == str(sequential[0].__cause__)


class TestFitMany:
    def test_equals_separate_fits(self, dataset):
        halves = [dataset.take(dataset.random_split_indices(0.5, np.random.default_rng(s))[0])
                  for s in range(3)]
        specs = [("quick", 1), ("single", 2), ("quick", 3)]
        together = NeuralNetworkModel.fit_many(
            [NeuralNetworkModel(method=m, seed=s) for m, s in specs], halves)
        for model, (method, seed), half in zip(together, specs, halves):
            alone = NeuralNetworkModel(method=method, seed=seed).fit(half)
            np.testing.assert_array_equal(model.predict(dataset), alone.predict(dataset))
            assert model.build_notes == alone.build_notes
