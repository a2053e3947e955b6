"""Gradient-descent training with momentum, Rprop, early stopping.

Clementine-era networks were trained by batch backpropagation ("variation of
steepest descent", paper §3.2). We implement:

* **Rprop** (resilient backpropagation, Riedmiller & Braun 1993): per-weight
  adaptive step sizes driven by gradient signs. This is the default batch
  trainer — it is period-appropriate, has no learning-rate tuning problem,
  and converges an order of magnitude deeper than plain gradient descent on
  these small regression sets;
* plain full-batch gradient descent with classical momentum and a
  constant rate (NN-S — the paper specifies the Single-layer method has "a
  constant learning rate");
* early stopping on a held-out validation split with weight restore —
  the mechanism whose *absence* in a final full-data fit makes the
  chronological neural nets over-fit exactly as the paper reports.

Datasets here are small (tens to hundreds of records), so full-batch
updates are both the faithful and the fast choice. An epoch's time goes
into the number of numpy calls it makes, at a few microseconds each, not
into arithmetic or allocation: a Table-2 pass runs ~40k epochs of a few
dozen calls each. One kernel, :func:`train_replicas`, therefore trains a
stack of R same-topology networks at once, so one call serves R replicas;
:func:`train_stack` is the same stack raising its first divergence, and
:func:`train` its R = 1 case.

* The data is shared by the stack (``X`` of shape ``(n, k)``) or given per
  replica (``X`` of shape ``(R, n, k)``, targets ``(R, n)``, validation set
  likewise); ragged per-replica data raises ``ValueError``.
* All weights of the stack sit in one contiguous ``(R, P)`` buffer, each
  layer's ``(fan_in + 1, fan_out)`` matrix a view into it; gradients fill a
  second ``(R, P)`` buffer of the same layout. Forward and backward passes
  are stacked ``np.matmul`` calls on ``(R, n, k)`` arrays.
* The optimizer update runs once per epoch over the whole flat buffer, with
  ``np.where`` in place of boolean indexing.
* Each replica has its own patience counter, best validation loss,
  divergence bound, best-weights snapshot and :class:`TrainingResult`.
  The scalars live in Python lists, read from the one ``tolist()`` of each
  epoch's training and validation losses, so the per-epoch tests are float
  work rather than numpy calls. A snapshot copies only the rows that
  improved, and only in an epoch where some did; numpy masks are built
  only when a replica stops, diverges or reaches ``max_epochs``. A replica
  that stops leaves the stack, and so does one that diverges: its error is
  recorded and the others train on.

A stacked network ends bit for bit where a lone :func:`train` call would
leave it: every update is element-wise, stacked ``matmul`` calls BLAS once
per replica slice, and the per-replica loss and bias-gradient sums reduce
in the same order as the two-dimensional calls.

Who fills the stacks: :mod:`repro.ml.nn.lockstep` runs many network builds
(the five holdout reps of an error estimate, NN-E's three prune chains)
side by side and trains their pending requests grouped by layer sizes,
activations, :class:`TrainingConfig` and data shapes, one stack per group.
A failure stays with the request whose replica diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Sequence

import numpy as np

from repro.errors import NumericalError
from repro.ml.nn.activations import LINEAR, Activation
from repro.ml.nn.network import MLP
from repro.obs.metrics import default_registry as _metrics

__all__ = ["TrainingConfig", "TrainingResult", "train", "train_stack", "train_replicas",
           "holdout_split"]


#: Classical momentum coefficient of gd, in ``[0, 1)``.
MOMENTUM = 0.9
#: Upper bound of :attr:`TrainingConfig.learning_rate`.
MAX_RATE = 2.0
#: Minimum relative validation improvement that resets patience, in
#: ``[0, 1)``: at 1 or more no epoch would improve, so training would stop
#: without a snapshot to restore.
MIN_DELTA = 1e-5
#: Training is declared divergent — a typed
#: :class:`~repro.errors.NumericalError` with cause ``nn-divergence`` — when
#: the loss goes NaN/Inf or exceeds ``DIVERGENCE_FACTOR × max(first loss, 1)``.
#: Clean runs never get near the bound, so detection changes no numbers.
DIVERGENCE_FACTOR = 1e6
#: Rprop constants (Riedmiller & Braun defaults): ``RPROP_GROW > 1``,
#: ``RPROP_SHRINK`` in ``(0, 1)``, ``RPROP_MIN <= RPROP_INIT <= RPROP_MAX``.
RPROP_INIT = 0.01
RPROP_GROW = 1.2
RPROP_SHRINK = 0.5
RPROP_MIN = 1e-7
RPROP_MAX = 1.0


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for one training run.

    Attributes
    ----------
    optimizer:
        ``"rprop"`` (default) or ``"gd"`` (plain gradient descent).
    max_epochs:
        Upper bound on epochs.
    learning_rate:
        Constant step size — gd only.
    patience:
        Stop after this many epochs without validation improvement
        (ignored when no validation set is provided).
    """

    optimizer: str = "rprop"
    max_epochs: int = 2000
    learning_rate: float = 0.2
    patience: int = 100

    def __post_init__(self) -> None:
        if self.optimizer not in ("rprop", "gd"):
            raise ValueError(f"optimizer must be 'rprop' or 'gd', got {self.optimizer!r}")
        if self.max_epochs <= 0:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.learning_rate <= MAX_RATE):
            raise ValueError(f"learning_rate must be in (0, {MAX_RATE}]")
        if self.patience <= 0:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainingResult:
    """Outcome of :func:`train`."""

    final_train_loss: float
    best_val_loss: float | None
    epochs_run: int
    stopped_early: bool
    loss_history: list[float] = field(default_factory=list, repr=False)


def holdout_split(
    n: int, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random (train_idx, val_idx) split; validation gets >= 1 record when
    ``val_fraction > 0`` and ``n >= 2``."""
    if not (0.0 <= val_fraction < 1.0):
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if val_fraction == 0.0 or n < 2:
        return np.arange(n), np.empty(0, dtype=int)
    n_val = min(max(int(round(val_fraction * n)), 1), n - 1)
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


class _Layout:
    """Where each layer's ``(fan_in + 1, fan_out)`` matrix (bias row first,
    as in :class:`MLP`) sits in a flat row of ``n_params`` weights."""

    def __init__(self, layer_sizes: Sequence[int]) -> None:
        self.shapes = [(i + 1, o) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
        ends = np.cumsum([a * b for a, b in self.shapes]).tolist()
        self.spans = list(zip([0, *ends[:-1]], ends))
        self.n_params = ends[-1]

    def views(self, buf: np.ndarray) -> list[np.ndarray]:
        """Per-layer ``(R, fan_in + 1, fan_out)`` views into an ``(R, P)`` buffer."""
        return [buf[:, lo:hi].reshape(len(buf), *shape)
                for (lo, hi), shape in zip(self.spans, self.shapes)]

    def layers(self, W: np.ndarray, G: np.ndarray) -> list[tuple[np.ndarray, ...]]:
        """Per layer: weight body, bias row, body transposed (views into the
        weights ``W``), gradient body and gradient bias row (views into ``G``)."""
        return [(w[:, 1:], w[:, :1], w[:, 1:].swapaxes(1, 2), g[:, 1:], g[:, 0])
                for w, g in zip(self.views(W), self.views(G))]


def _forward(a: np.ndarray, layers: list[tuple[np.ndarray, ...]], hidden: Activation,
             output: Activation) -> list[np.ndarray]:
    """Layer activations of every replica, inputs first, output ``(R, n, q)`` last."""
    acts = [a]
    last = len(layers) - 1
    for li, (body, bias, *_) in enumerate(layers):
        a = (output if li == last else hidden).fn(np.matmul(a, body) + bias)
        acts.append(a)
    return acts


def _mse(out: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-replica mean squared error (exactly ``np.mean`` of each slice)
    and the residuals."""
    diff = out - y
    sq = diff * diff
    return np.add.reduce(sq.reshape(len(sq), -1), axis=1) / diff[0].size, diff


def _backward(acts: list[np.ndarray], diff: np.ndarray, layers: list[tuple[np.ndarray, ...]],
              hidden: Activation, output: Activation) -> None:
    """Backpropagate the MSE of every replica into the layers' gradient views."""
    delta = (2.0 / diff[0].size) * diff
    if output is not LINEAR:  # the linear derivative is a multiply by 1.0
        delta = delta * output.deriv_from_output(acts[-1])
    for li in range(len(layers) - 1, -1, -1):
        a_prev = acts[li]
        _, _, body_t, grad_body, grad_bias = layers[li]
        np.add.reduce(delta, axis=-2, out=grad_bias)
        np.matmul(a_prev.swapaxes(-1, -2), delta, out=grad_body)
        if li:
            delta = np.matmul(delta, body_t) * hidden.deriv_from_output(a_prev)


def _diverged(message: str, context: dict) -> NumericalError:
    return NumericalError(message, cause="nn-divergence", context=context)


def count_divergence(error: NumericalError) -> NumericalError:
    """Count a divergence under ``robust.nn.divergence`` and return it.

    A divergence is counted where it fails the caller: once per failed
    :func:`train_stack` call and once per failed network build, however
    many replicas of it diverged.
    """
    _metrics().counter("robust.nn.divergence").inc()
    return error


def train(
    net: MLP,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> TrainingResult:
    """Train ``net`` in place; returns the run summary.

    When a validation set is given, the weights achieving the lowest
    validation loss are restored at the end (early stopping with restore).
    This is :func:`train_stack` with a stack of one.
    """
    return train_stack([net], X, y, config, X_val, y_val)[0]


def train_stack(
    nets: Sequence[MLP],
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> list[TrainingResult]:
    """Train same-topology ``nets``, each in place, as one stack.

    The data is shared (``X`` of shape ``(n, k)``) or per replica (``X`` of
    shape ``(R, n, k)``, ``y`` of shape ``(R, n)``, and the validation set
    likewise). Every network ends exactly as a separate :func:`train` call
    on its data would leave it, with the same :class:`TrainingResult`. If
    any replica diverges, the first to do so (earliest epoch, then lowest
    index) has its :class:`~repro.errors.NumericalError` raised once the
    others have finished.
    """
    results, failures = train_replicas(nets, X, y, config, X_val, y_val)
    if failures:
        raise count_divergence(failures[0][1])
    return results


class _Stack:
    """The per-replica state of the replicas still training, one row each.

    The optimizer state is arrays with a replica axis. The scalars the loop
    tests once per epoch (divergence bound, best validation loss, patience
    counter) are Python lists: at these sizes a numpy call costs more than
    the Python float work it would replace. :meth:`drop` removes rows from
    every per-replica array and list at once, and from the data where it
    has a replica axis.
    """

    def __init__(self, W: np.ndarray, config: TrainingConfig, has_val: bool,
                 data: tuple[np.ndarray | None, ...]) -> None:
        R = len(W)
        self.rows = list(range(R))  # original index of each row
        self.W = W
        self.has_val = has_val
        # The weights each replica ends with: its best snapshot, or without
        # a validation set its final weights (the buffer itself).
        self.best_w = W.copy() if has_val else W
        if config.optimizer == "rprop":
            self.step = np.full_like(W, RPROP_INIT)
            self.prev_sign = np.zeros_like(W)
            self._per_row = ("step", "prev_sign")
        else:
            self.velocity = np.zeros_like(W)
            self._per_row = ("velocity",)
        self.bound = [inf] * R
        self.best_val = [inf] * R
        self.since_best = [0] * R
        self.X, self.y, self.Xv, self.yv = data

    def drop(self, keep: np.ndarray) -> None:
        for name in ("W", *self._per_row):
            setattr(self, name, getattr(self, name)[keep])
        self.best_w = self.best_w[keep] if self.has_val else self.W
        for name in ("X", "y", "Xv", "yv"):
            A = getattr(self, name)
            if A is not None and A.ndim == 3:
                setattr(self, name, A[keep])
        kept = keep.tolist()
        for name in ("rows", "bound", "best_val", "since_best"):
            setattr(self, name, [v for v, k in zip(getattr(self, name), kept) if k])


def _float_array(A, name: str) -> np.ndarray:
    if isinstance(A, (list, tuple)):
        shapes = sorted({np.shape(a) for a in A})
        if len(shapes) > 1:
            raise ValueError(f"per-replica {name} must share one shape, got {shapes}")
    return np.asarray(A, dtype=np.float64)


def train_replicas(
    nets: Sequence[MLP],
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[list[TrainingResult | None], list[tuple[int, NumericalError]]]:
    """The kernel behind :func:`train_stack`, which reports divergence
    instead of raising it.

    Returns each network's :class:`TrainingResult` (``None`` for one that
    diverged) and the divergences as ``(index, error)`` pairs in the order
    they were detected, uncounted. A replica that diverges leaves the stack
    and the others train on unchanged.
    """
    if not nets:
        raise ValueError("need at least one network to train")
    head = nets[0]
    for net in nets[1:]:
        if (net.layer_sizes != head.layer_sizes or net.hidden_act is not head.hidden_act
                or net.output_act is not head.output_act):
            raise ValueError(f"a stack needs one topology; got {net!r} next to {head!r}")
    hidden, output = head.hidden_act, head.output_act
    R, q = len(nets), head.n_outputs
    masks = np.array([net.input_mask for net in nets])

    X = _float_array(X, "inputs")
    per_replica = X.ndim == 3

    def inputs(A: np.ndarray, name: str) -> np.ndarray:
        A = _float_array(A, name)
        if not per_replica:
            A = np.atleast_2d(A)
        if A.ndim != (3 if per_replica else 2):
            raise ValueError(f"{name} must have shape {'(R, n, k)' if per_replica else '(n, k)'}"
                             f" like the inputs, got {A.shape}")
        if per_replica and len(A) != R:
            raise ValueError(f"per-replica {name} need one slice per network: {len(A)} for {R}")
        if A.shape[-1] != head.n_inputs:
            raise ValueError(f"expected {head.n_inputs} inputs, got {A.shape[-1]}")
        return A

    def targets(t: np.ndarray, A: np.ndarray, name: str) -> np.ndarray:
        t = _float_array(t, name)
        return t.reshape(R, A.shape[1], q) if per_replica else t.reshape(-1, q)

    def masked(A: np.ndarray) -> np.ndarray:
        # Masked inputs are silenced once per call, not once per epoch.
        return A if masks.all() else A * masks[:, None, :]

    X = inputs(X, "inputs")
    y2 = targets(y, X, "targets")
    has_val = X_val is not None and y_val is not None and np.size(y_val) > 0
    Xv = yv = None
    if has_val:
        Xv = inputs(X_val, "validation inputs")
        yv = targets(y_val, Xv, "validation targets")

    layout = _Layout(head.layer_sizes)
    W = np.empty((R, layout.n_params))
    for r, net in enumerate(nets):
        for view, w in zip(layout.views(W), net.weights):
            view[r] = w
    st = _Stack(W, config, has_val, (masked(X), y2, masked(Xv) if has_val else None, yv))
    G = np.empty_like(W)
    layers = layout.layers(W, G)
    use_rprop = config.optimizer == "rprop"
    history: list[list[float]] = [[] for _ in range(R)]
    finished: dict[int, tuple[int, bool, float]] = {}
    failures: list[tuple[int, NumericalError]] = []

    def finish(rows: np.ndarray, epochs_run: int, stopped_early: bool) -> None:
        for row in np.flatnonzero(rows):
            i = st.rows[row]
            for w, view in zip(nets[i].weights, layout.views(st.best_w[row:row + 1])):
                w[...] = view[0]
            finished[i] = (epochs_run, stopped_early, st.best_val[row])

    patience, keep_frac = config.patience, 1.0 - MIN_DELTA
    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        acts = _forward(st.X, layers, hidden, output)
        loss, diff = _mse(acts[-1], st.y)
        losses = loss.tolist()
        for i, value in zip(st.rows, losses):
            history[i].append(value)
        if epoch == 0:
            st.bound = [max(v if isfinite(v) else 1.0, 1.0) * DIVERGENCE_FACTOR
                        for v in losses]
        sound = [isfinite(v) and v <= b for v, b in zip(losses, st.bound)]
        if not all(sound):
            for row, (ok, v, b) in enumerate(zip(sound, losses, st.bound)):
                if not ok:
                    failures.append((st.rows[row], _diverged(
                        f"training diverged at epoch {epochs_run}: loss={v!r} (bound {b:.3g})",
                        {"epoch": epochs_run, "loss": v, "bound": b,
                         "optimizer": config.optimizer},
                    )))
            # The diverged replicas leave the stack before their update.
            keep = np.array(sound)
            st.drop(keep)
            if not st.rows:
                break
            acts = [a[keep] if a.ndim == 3 else a for a in acts]
            diff = diff[keep]
            G = np.empty_like(st.W)
            layers = layout.layers(st.W, G)
        _backward(acts, diff, layers, hidden, output)

        if use_rprop:
            # Rprop-: per-weight signed steps; shrink and skip on sign flip.
            sign = np.sign(G)
            agree = sign * st.prev_sign
            flip = agree < 0.0
            st.step = np.where(
                agree > 0.0, np.minimum(st.step * RPROP_GROW, RPROP_MAX),
                np.where(flip, np.maximum(st.step * RPROP_SHRINK, RPROP_MIN),
                         st.step))
            np.copyto(sign, 0.0, where=flip)
            st.W -= sign * st.step
            st.prev_sign = sign
        else:
            st.velocity *= MOMENTUM
            st.velocity -= config.learning_rate * G
            st.W += st.velocity

        if not has_val:
            continue
        val_losses = _mse(_forward(st.Xv, layers, hidden, output)[-1], st.yv)[0].tolist()
        best_val, since_best = st.best_val, st.since_best
        improved: list[int] = []
        stop = False
        for row, v in enumerate(val_losses):
            if v < best_val[row] * keep_frac:
                best_val[row], since_best[row] = v, 0
                improved.append(row)
            else:
                # A non-finite loss never improves, so it lands here too.
                since_best[row] += 1
                stop = stop or since_best[row] >= patience or not isfinite(v)
        if improved:
            if len(improved) == len(val_losses):
                np.copyto(st.best_w, st.W)
            else:
                st.best_w[improved] = st.W[improved]
        if not stop:
            continue
        finite = np.isfinite(val_losses)
        for row in np.flatnonzero(~finite).tolist():
            failures.append((st.rows[row], _diverged(
                f"validation loss went non-finite at epoch {epochs_run}",
                {"epoch": epochs_run, "loss": val_losses[row], "optimizer": config.optimizer},
            )))
        done = (np.array(since_best) >= patience) & finite
        finish(done, epochs_run, stopped_early=True)
        # Compact: the stopped and diverged replicas leave the stack.
        st.drop(~done & finite)
        if not st.rows:
            break
        G = np.empty_like(st.W)
        layers = layout.layers(st.W, G)
    if st.rows:
        finish(np.ones(len(st.rows), dtype=bool), config.max_epochs, stopped_early=False)

    results: list[TrainingResult | None] = [None] * R
    for i, net in enumerate(nets):
        if i not in finished:
            continue
        epochs_run, stopped_early, best = finished[i]
        results[i] = TrainingResult(
            final_train_loss=net.loss(X[i], y2[i]) if per_replica else net.loss(X, y2),
            best_val_loss=best if has_val and isfinite(best) else None,
            epochs_run=epochs_run,
            stopped_early=stopped_early,
            loss_history=history[i],
        )
    return results, failures
