"""Gradient-descent training with momentum, adaptive rate, early stopping.

Clementine-era networks were trained by batch backpropagation ("variation of
steepest descent", paper §3.2). We implement:

* **Rprop** (resilient backpropagation, Riedmiller & Braun 1993): per-weight
  adaptive step sizes driven by gradient signs. This is the default batch
  trainer — it is period-appropriate, has no learning-rate tuning problem,
  and converges an order of magnitude deeper than plain gradient descent on
  these small regression sets;
* plain full-batch gradient descent with classical momentum and either a
  constant rate (NN-S — the paper specifies the Single-layer method has "a
  constant learning rate") or *bold-driver* adaptation;
* early stopping on a held-out validation split with weight restore —
  the mechanism whose *absence* in a final full-data fit makes the
  chronological neural nets over-fit exactly as the paper reports.

Datasets here are small (tens to hundreds of records), so full-batch
updates are both the faithful and the fast choice, and an epoch's cost is
numpy call overhead rather than arithmetic. One kernel, :func:`train_stack`,
therefore trains a stack of R same-topology networks on shared data at once
(NN-E's three restarts); :func:`train` is its R = 1 case.

* All weights of the stack sit in one contiguous ``(R, P)`` buffer, each
  layer's ``(fan_in + 1, fan_out)`` matrix a view into it; gradients fill a
  second ``(R, P)`` buffer of the same layout. Forward and backward passes
  are stacked ``np.matmul`` calls on ``(R, n, k)`` arrays.
* The optimizer update runs once per epoch over the whole flat buffer, with
  ``np.where`` in place of boolean indexing; gd keeps a rate per replica.
* Each replica has its own patience counter, best-weights snapshot (one
  masked ``np.copyto`` per epoch), divergence bound and
  :class:`TrainingResult`. A replica that stops leaves the stack.

A stacked network ends bit for bit where a lone :func:`train` call would
leave it: every update is element-wise, stacked ``matmul`` calls BLAS once
per replica slice, and the per-replica loss and bias-gradient sums reduce
in the same order as the two-dimensional calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import NumericalError
from repro.ml.nn.activations import LINEAR, Activation
from repro.ml.nn.network import MLP
from repro.obs.metrics import default_registry as _metrics

__all__ = ["TrainingConfig", "TrainingResult", "train", "train_stack", "holdout_split"]


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
        Initial (or constant) step size — gd only.
    momentum:
        Classical momentum coefficient — gd only.
    adaptive_rate:
        Enable bold-driver adaptation for gd; ``False`` keeps the rate
        constant (the NN-S behaviour).
    patience:
        Stop after this many epochs without validation improvement
        (ignored when no validation set is provided).
    min_delta:
        Minimum relative improvement that resets patience, in ``[0, 1)``.
    rate_grow, rate_shrink:
        Bold-driver factors: ``rate_grow > 1``, ``rate_shrink`` in ``(0, 1)``.
    divergence_factor:
        Training is declared divergent — a typed
        :class:`~repro.errors.NumericalError` with cause ``nn-divergence``
        — when the loss goes NaN/Inf or exceeds
        ``divergence_factor × max(first loss, 1)``. Clean runs never get
        near the bound, so detection changes no numbers.
    """

    optimizer: str = "rprop"
    max_epochs: int = 2000
    learning_rate: float = 0.2
    momentum: float = 0.9
    adaptive_rate: bool = True
    rate_grow: float = 1.05
    rate_shrink: float = 0.5
    min_rate: float = 1e-5
    max_rate: float = 2.0
    patience: int = 100
    min_delta: float = 1e-5
    divergence_factor: float = 1e6
    # Rprop constants (Riedmiller & Braun defaults): rprop_grow > 1,
    # rprop_shrink in (0, 1), rprop_min <= rprop_init <= rprop_max.
    rprop_init: float = 0.01
    rprop_grow: float = 1.2
    rprop_shrink: float = 0.5
    rprop_min: float = 1e-7
    rprop_max: float = 1.0

    def __post_init__(self) -> None:
        if self.optimizer not in ("rprop", "gd"):
            raise ValueError(f"optimizer must be 'rprop' or 'gd', got {self.optimizer!r}")
        if self.max_epochs <= 0:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0.0 < self.learning_rate <= self.max_rate):
            raise ValueError(f"learning_rate must be in (0, {self.max_rate}]")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.patience <= 0:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.divergence_factor <= 1.0:
            raise ValueError(
                f"divergence_factor must be > 1, got {self.divergence_factor}"
            )
        if not (0.0 <= self.min_delta < 1.0):
            # min_delta >= 1 would make no epoch an improvement, so training
            # would stop without ever taking a snapshot to restore.
            raise ValueError(f"min_delta must be in [0, 1), got {self.min_delta}")
        if self.rate_grow <= 1.0:
            raise ValueError(f"rate_grow must be > 1, got {self.rate_grow}")
        if not (0.0 < self.rate_shrink < 1.0):
            raise ValueError(f"rate_shrink must be in (0, 1), got {self.rate_shrink}")
        if self.rprop_grow <= 1.0:
            raise ValueError(f"rprop_grow must be > 1, got {self.rprop_grow}")
        if not (0.0 < self.rprop_shrink < 1.0):
            raise ValueError(f"rprop_shrink must be in (0, 1), got {self.rprop_shrink}")
        if not (self.rprop_min <= self.rprop_init <= self.rprop_max):
            raise ValueError(
                f"need rprop_min <= rprop_init <= rprop_max, got {self.rprop_min}, "
                f"{self.rprop_init}, {self.rprop_max}"
            )


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
    _metrics().counter("robust.nn.divergence").inc()
    return NumericalError(message, cause="nn-divergence", context=context)


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
    """Train same-topology ``nets`` on shared data, each in place, as one stack.

    Every network ends exactly as a separate :func:`train` call would leave
    it, with the same :class:`TrainingResult`. A replica that stops early
    leaves the stack. The first epoch at which any replica diverges raises
    the :class:`~repro.errors.NumericalError` of the lowest-index one.
    """
    if not nets:
        raise ValueError("need at least one network to train")
    head = nets[0]
    for net in nets[1:]:
        if (net.layer_sizes != head.layer_sizes or net.hidden_act is not head.hidden_act
                or net.output_act is not head.output_act):
            raise ValueError(f"a stack needs one topology; got {net!r} next to {head!r}")
    hidden, output = head.hidden_act, head.output_act
    masks = np.array([net.input_mask for net in nets])

    def inputs(A: np.ndarray) -> np.ndarray:
        A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        if A.shape[1] != head.n_inputs:
            raise ValueError(f"expected {head.n_inputs} inputs, got {A.shape[1]}")
        # Masked inputs are silenced once per call, not once per epoch.
        return A if masks.all() else A * masks[:, None, :]

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Xm = inputs(X)
    y2 = np.asarray(y, dtype=np.float64).reshape(-1, head.n_outputs)
    has_val = X_val is not None and y_val is not None and len(np.atleast_1d(y_val)) > 0
    if has_val:
        Xv = inputs(X_val)
        yv = np.asarray(y_val, dtype=np.float64).reshape(-1, head.n_outputs)

    R = len(nets)
    layout = _Layout(head.layer_sizes)
    W = np.empty((R, layout.n_params))
    for r, net in enumerate(nets):
        for view, w in zip(layout.views(W), net.weights):
            view[r] = w
    G = np.empty_like(W)
    layers = layout.layers(W, G)
    # The weights each replica ends with: its best snapshot, or without a
    # validation set its final weights (the buffer itself).
    best_w = W.copy() if has_val else W
    use_rprop = config.optimizer == "rprop"
    if use_rprop:
        step = np.full_like(W, config.rprop_init)
        prev_sign = np.zeros_like(W)
    else:
        velocity = np.zeros_like(W)
        lr = np.full(R, config.learning_rate)
        prev_loss = np.full(R, np.inf)
    bound = np.full(R, np.inf)
    best_val = np.full(R, np.inf)
    since_best = np.zeros(R, dtype=np.int64)
    active = list(range(R))  # original index of each stack row
    history: list[list[float]] = [[] for _ in range(R)]
    finished: dict[int, tuple[int, bool, float]] = {}

    def finish(rows: np.ndarray, epochs_run: int, stopped_early: bool) -> None:
        for row in np.flatnonzero(rows):
            i = active[row]
            for w, view in zip(nets[i].weights, layout.views(best_w[row:row + 1])):
                w[...] = view[0]
            finished[i] = (epochs_run, stopped_early, float(best_val[row]))

    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        acts = _forward(Xm, layers, hidden, output)
        loss, diff = _mse(acts[-1], y2)
        for i, value in zip(active, loss.tolist()):
            history[i].append(value)
        if epoch == 0:
            bound = np.maximum(np.where(np.isfinite(loss), loss, 1.0), 1.0) \
                * config.divergence_factor
        sound = np.isfinite(loss) & (loss <= bound)
        if not sound.all():
            row = int(np.argmin(sound))
            raise _diverged(
                f"training diverged at epoch {epochs_run}: loss={float(loss[row])!r} "
                f"(bound {bound[row]:.3g})",
                {"epoch": epochs_run, "loss": float(loss[row]),
                 "bound": float(bound[row]), "optimizer": config.optimizer},
            )
        _backward(acts, diff, layers, hidden, output)

        if use_rprop:
            # Rprop-: per-weight signed steps; shrink and skip on sign flip.
            sign = np.sign(G)
            agree = sign * prev_sign
            flip = agree < 0.0
            step = np.where(agree > 0.0, np.minimum(step * config.rprop_grow, config.rprop_max),
                            np.where(flip, np.maximum(step * config.rprop_shrink,
                                                      config.rprop_min), step))
            np.copyto(sign, 0.0, where=flip)
            W -= sign * step
            prev_sign = sign
        else:
            if config.adaptive_rate:
                # Bold driver: a worsening step shrinks the rate and damps
                # momentum; any other step grows the rate.
                worse = loss > prev_loss * (1.0 + 1e-12)
                lr = np.where(worse, np.maximum(lr * config.rate_shrink, config.min_rate),
                              np.minimum(lr * config.rate_grow, config.max_rate))
                if worse.any():
                    np.multiply(velocity, 0.0, out=velocity, where=worse[:, None])
            prev_loss = loss
            velocity *= config.momentum
            velocity -= lr[:, None] * G
            W += velocity

        if not has_val:
            continue
        val_loss = _mse(_forward(Xv, layers, hidden, output)[-1], yv)[0]
        finite = np.isfinite(val_loss)
        if not finite.all():
            row = int(np.argmin(finite))
            raise _diverged(
                f"validation loss went non-finite at epoch {epochs_run}",
                {"epoch": epochs_run, "loss": float(val_loss[row]),
                 "optimizer": config.optimizer},
            )
        improved = val_loss < best_val * (1.0 - config.min_delta)
        np.copyto(best_w, W, where=improved[:, None])
        best_val = np.where(improved, val_loss, best_val)
        since_best = np.where(improved, 0, since_best + 1)
        done = since_best >= config.patience
        if done.any():
            finish(done, epochs_run, stopped_early=True)
            if done.all():
                break
            # Compact: the stopped replicas leave the stack.
            keep = ~done
            W, best_w = W[keep], best_w[keep]
            G = np.empty_like(W)
            layers = layout.layers(W, G)
            if use_rprop:
                step, prev_sign = step[keep], prev_sign[keep]
            else:
                velocity, lr, prev_loss = velocity[keep], lr[keep], prev_loss[keep]
            bound, best_val, since_best = bound[keep], best_val[keep], since_best[keep]
            active = [i for i, kept in zip(active, keep) if kept]
            if Xm.ndim == 3:
                Xm, Xv = Xm[keep], Xv[keep]
    else:
        finish(np.ones(len(active), dtype=bool), config.max_epochs, stopped_early=False)

    results = []
    for i, net in enumerate(nets):
        epochs_run, stopped_early, best = finished[i]
        results.append(TrainingResult(
            final_train_loss=net.loss(X, y),
            best_val_loss=best if has_val and np.isfinite(best) else None,
            epochs_run=epochs_run,
            stopped_early=stopped_early,
            loss_history=history[i],
        ))
    return results
