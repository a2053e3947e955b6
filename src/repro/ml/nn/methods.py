"""The six neural-network training methods of the paper (§3.2).

Clementine's NN node offers five training methods — Quick (NN-Q), Dynamic
(NN-D), Multiple (NN-M), Prune (NN-P), Exhaustive Prune (NN-E) — and the
paper additionally uses a Single-layer method (NN-S, "a modified version of
NN-Q" with a constant learning rate and a smaller single hidden layer,
"similar to the model developed by Ipek et al."). The methods differ only
in *topology policy*: how the hidden structure is chosen, grown, searched,
or pruned. The underlying learner is always the saturating MLP of
:mod:`repro.ml.nn.network` trained by :mod:`repro.ml.nn.training`.

Every builder takes an encoded, 0–1-scaled design matrix plus targets and
returns a trained :class:`~repro.ml.nn.network.MLP`. Builders hold out a
validation fraction internally for early stopping / topology scoring; the
paper-level cross-validation (5 × 50% holdout) happens a layer above, in
:mod:`repro.ml.selection`.

Each builder is written as a generator of training requests (an
:class:`NnMethod`), so that :mod:`repro.ml.nn.lockstep` can advance many
builds side by side and train their requests as shared stacks; calling a
builder runs one build on its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ml.nn.lockstep import Steps, TrainRequest, drive, side_by_side, train_step, unwrap
from repro.ml.nn.network import MLP
from repro.ml.nn.pruning import prune_steps
from repro.ml.nn.training import TrainingConfig, holdout_split

__all__ = ["NN_METHODS", "NnBuild", "NnMethod", "method_steps", "build_quick", "build_dynamic",
           "build_multiple", "build_prune", "build_exhaustive_prune", "build_single"]


@dataclass
class NnBuild:
    """A trained network plus the diagnostics the workflows report."""

    net: MLP
    val_loss: float | None
    notes: list[str]


class NnMethod:
    """A training method: a generator function ``steps(X, y, rng)`` of
    training requests (see :mod:`repro.ml.nn.lockstep`) that returns an
    :class:`NnBuild`. Calling the method runs one build on its own."""

    def __init__(self, steps: Callable[[np.ndarray, np.ndarray, np.random.Generator], Steps]):
        self.steps = steps
        functools.update_wrapper(self, steps)

    def __call__(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> NnBuild:
        return drive(self.steps(X, y, rng))


def method_steps(builder: Callable[..., NnBuild], X: np.ndarray, y: np.ndarray,
                 rng: np.random.Generator) -> Steps:
    """The build of ``builder`` on ``(X, y, rng)`` as a request generator.

    Any other ``(X, y, rng) -> NnBuild`` callable (a test's stand-in for a
    method) builds whole at its first step, asking for no training.
    """
    if isinstance(builder, NnMethod):
        return builder.steps(X, y, rng)
    return _whole(builder, X, y, rng)


def _whole(builder, X, y, rng) -> Steps:
    return builder(X, y, rng)
    yield  # a generator with no requests


def _split(
    X: np.ndarray, y: np.ndarray, rng: np.random.Generator, val_fraction: float = 0.25
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    tr, va = holdout_split(X.shape[0], val_fraction, rng)
    if va.size == 0:
        return X, y, X, y
    return X[tr], y[tr], X[va], y[va]


def _quick_hidden_size(n_in: int) -> int:
    """Clementine's Quick-method heuristic: about ⅔ of (inputs + outputs)."""
    return max(3, int(np.ceil((n_in + 1) * 2.0 / 3.0)))


@NnMethod
def build_quick(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-Q: one heuristic-sized hidden layer, adaptive rate, early stopping."""
    Xt, yt, Xv, yv = _split(X, y, rng)
    net = MLP([X.shape[1], _quick_hidden_size(X.shape[1]), 1], rng)
    cfg = TrainingConfig(max_epochs=2500, patience=250)
    (res,) = yield from train_step([net], Xt, yt, cfg, Xv, yv)
    return NnBuild(net, res.best_val_loss, [f"hidden={net.hidden_sizes}", f"epochs={res.epochs_run}"])


@NnMethod
def build_single(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-S: small single hidden layer, *constant* learning rate (paper §3.2).

    This is the Ipek-et-al-style model: 16 hidden units, fixed step size.
    Faster to train than the other methods but typically less accurate.
    """
    Xt, yt, Xv, yv = _split(X, y, rng)
    hidden = min(16, max(3, X.shape[1]))
    net = MLP([X.shape[1], hidden, 1], rng)
    cfg = TrainingConfig(
        optimizer="gd", max_epochs=1500, learning_rate=0.15, patience=150,
    )
    (res,) = yield from train_step([net], Xt, yt, cfg, Xv, yv)
    return NnBuild(net, res.best_val_loss, [f"hidden={hidden}", f"epochs={res.epochs_run}"])


@NnMethod
def build_dynamic(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-D: grow the hidden layer while validation keeps improving.

    Starts from 2 units; each growth step adds 2 units (new weights random,
    surviving weights kept) and continues training. Growth stops when a
    step fails to improve validation loss by at least 1%.
    """
    Xt, yt, Xv, yv = _split(X, y, rng)
    n_in = X.shape[1]
    cfg = TrainingConfig(max_epochs=1500, patience=200)
    net = MLP([n_in, 2, 1], rng)
    yield from train_step([net], Xt, yt, cfg, Xv, yv)
    best_val = net.loss(Xv, yv)
    notes = [f"start hidden=2, val={best_val:.3g}"]
    max_hidden = max(8, 2 * n_in)
    while net.hidden_sizes[0] + 2 <= max_hidden:
        grown = _grow_hidden(net, 2, rng)
        yield from train_step([grown], Xt, yt, cfg, Xv, yv)
        val = grown.loss(Xv, yv)
        if val < best_val * 0.99:
            notes.append(f"grew to {grown.hidden_sizes[0]}, val={val:.3g}")
            net, best_val = grown, val
        else:
            notes.append(f"stop growth at {net.hidden_sizes[0]} (trial val={val:.3g})")
            break
    return NnBuild(net, float(best_val), notes)


def _grow_hidden(net: MLP, extra: int, rng: np.random.Generator) -> MLP:
    """Return a copy of ``net`` with ``extra`` fresh units in hidden layer 0."""
    if len(net.hidden_sizes) != 1:
        raise ValueError("growth is defined for single-hidden-layer networks")
    old_h = net.hidden_sizes[0]
    grown = MLP([net.n_inputs, old_h + extra, net.n_outputs], rng,
                hidden=net.hidden_act.name, output=net.output_act.name)
    grown.input_mask = net.input_mask.copy()
    grown.weights[0][:, :old_h] = net.weights[0]
    grown.weights[1][0] = net.weights[1][0]          # output bias
    grown.weights[1][1:old_h + 1] = net.weights[1][1:]
    # New units start with tiny outgoing weights so they perturb little.
    grown.weights[1][old_h + 1:] *= 0.1
    return grown


@NnMethod
def build_multiple(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-M: train several candidate topologies, keep the validation winner.

    The candidates are drawn in order and trained in one round of requests;
    a failure is the first failing candidate's, as when they trained one by
    one (training draws nothing from ``rng``)."""
    Xt, yt, Xv, yv = _split(X, y, rng)
    n_in = X.shape[1]
    candidates: list[list[int]] = [
        [n_in, max(3, n_in // 3), 1],
        [n_in, _quick_hidden_size(n_in), 1],
        [n_in, n_in + 2, 1],
        [n_in, max(4, n_in // 2), max(3, n_in // 4), 1],
    ]
    cfg = TrainingConfig(max_epochs=2000, patience=200)
    nets = [MLP(sizes, rng) for sizes in candidates]
    outcomes = yield [TrainRequest([net], Xt, yt, cfg, Xv, yv) for net in nets]
    best: tuple[MLP, float] | None = None
    notes = []
    for sizes, net, outcome in zip(candidates, nets, outcomes):
        unwrap(outcome)
        val = net.loss(Xv, yv)
        notes.append(f"topology {sizes[1:-1]}: val={val:.3g}")
        if best is None or val < best[1]:
            best = (net, val)
    assert best is not None
    return NnBuild(best[0], float(best[1]), notes)


@NnMethod
def build_prune(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-P: train an oversized two-hidden-layer net, then sensitivity-prune."""
    Xt, yt, Xv, yv = _split(X, y, rng)
    n_in = X.shape[1]
    net = MLP([n_in, max(6, n_in), max(3, n_in // 2), 1], rng)
    cfg = TrainingConfig(max_epochs=2500, patience=250)
    yield from train_step([net], Xt, yt, cfg, Xv, yv)
    retrain = TrainingConfig(max_epochs=400, patience=80)
    outcome = yield from prune_steps(net, Xt, yt, Xv, yv, retrain, tolerance=0.05)
    notes = [f"pruned {outcome.removed_hidden} hidden, {outcome.removed_inputs} inputs"]
    return NnBuild(outcome.net, outcome.val_loss, notes)


@NnMethod
def build_exhaustive_prune(X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> Steps:
    """NN-E: the thorough search — multiple restarts, long training, tight
    pruning tolerance. "It is the slowest of all, but often yields the best
    results" (paper §3.2)."""
    Xt, yt, Xv, yv = _split(X, y, rng)
    n_in = X.shape[1]
    cfg = TrainingConfig(max_epochs=5000, patience=500)
    retrain = TrainingConfig(max_epochs=700, patience=120)
    # All restarts are drawn before any is trained, and trained as one
    # request. Each still gets the weights it would get if drawn just before
    # its own training, because training and pruning draw nothing from rng.
    # Their prune chains then run side by side, failing as they would one
    # after another.
    nets = [MLP([n_in, n_in + 4, max(4, n_in // 2), 1], rng) for _ in range(3)]
    yield from train_step(nets, Xt, yt, cfg, Xv, yv)
    pruned = yield from side_by_side(
        [prune_steps(net, Xt, yt, Xv, yv, retrain, tolerance=0.01) for net in nets])
    best: tuple[MLP, float] | None = None
    notes = []
    for restart, outcome in enumerate(pruned):
        notes.append(
            f"restart {restart}: val={outcome.val_loss:.3g} "
            f"(-{outcome.removed_hidden}h/-{outcome.removed_inputs}i)"
        )
        if best is None or outcome.val_loss < best[1]:
            best = (outcome.net, outcome.val_loss)
    assert best is not None
    return NnBuild(best[0], float(best[1]), notes)


#: Clementine method name -> (paper label, builder)
NN_METHODS: dict[str, tuple[str, Callable[[np.ndarray, np.ndarray, np.random.Generator], NnBuild]]] = {
    "quick": ("NN-Q", build_quick),
    "dynamic": ("NN-D", build_dynamic),
    "multiple": ("NN-M", build_multiple),
    "prune": ("NN-P", build_prune),
    "exhaustive": ("NN-E", build_exhaustive_prune),
    "single": ("NN-S", build_single),
}
