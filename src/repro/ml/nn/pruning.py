"""Sensitivity-based network pruning (the Prune / Exhaustive-Prune methods).

Clementine's *Prune* and *Exhaustive Prune* training methods start from a
deliberately oversized network and repeatedly remove the hidden units and
input fields that contribute least, retraining between removals. We measure
a unit's contribution by *ablation sensitivity*: the increase in validation
loss when the unit's output is replaced by its mean over the validation
batch (skeletonization-style). Inputs are ablated the same way — the input
column is frozen at its mean — which is also exactly how input importance
is computed for the paper's §4.4 analysis (see
:mod:`repro.ml.nn.importance`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NumericalError
from repro.ml.nn.lockstep import Steps, train_step
from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, _mse

__all__ = ["hidden_unit_sensitivities", "input_sensitivities", "prune_steps", "PruneOutcome"]


def _ablated_mse(net: MLP, a: np.ndarray, start: int, y2: np.ndarray) -> np.ndarray:
    """MSE of each ablated copy: ``a`` stacks ``U`` copies ``(U, n, ·)`` of the
    input to layer ``start``, run through the rest of the network at once.

    A 3-D by 2-D ``matmul`` calls BLAS per slice, and :func:`_mse` sums each
    slice as ``np.mean`` does, so entry ``u`` is bit for bit the loss of a
    forward pass on copy ``u`` alone.
    """
    last = len(net.weights) - 1
    for lj in range(start, len(net.weights)):
        w = net.weights[lj]
        a = (net.output_act if lj == last else net.hidden_act).fn(a @ w[1:] + w[0])
    return _mse(a, y2)[0]


def _clamp_columns(A: np.ndarray, cols: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``len(cols)`` copies of ``A``, copy ``u`` with column ``cols[u]`` set to
    ``means[u]``."""
    stacked = np.repeat(A[None], len(cols), axis=0)
    stacked[np.arange(len(cols)), :, cols] = means[:, None]
    return stacked


def hidden_unit_sensitivities(net: MLP, X: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Per-hidden-unit ablation sensitivity.

    Returns one array per hidden layer; entry ``[u]`` is the loss increase
    when unit ``u``'s activation is clamped to its batch mean (can be
    slightly negative if the unit is actively harmful). Every unit of a
    layer is ablated in one stacked pass over the tail of the network.
    """
    acts = net.forward(X)
    y2 = np.asarray(y, dtype=np.float64).reshape(-1, net.n_outputs)
    base = float(np.mean((acts[-1] - y2) ** 2))
    out: list[np.ndarray] = []
    for li in range(1, len(net.layer_sizes) - 1):
        A = acts[li]
        # Each column's own mean, summed in the order a lone ablation sums it.
        means = np.array([A[:, u].mean() for u in range(A.shape[1])])
        out.append(_ablated_mse(net, _clamp_columns(A, np.arange(A.shape[1]), means),
                                li, y2) - base)
    return out


def input_sensitivities(net: MLP, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-input ablation sensitivity (loss increase when the input is
    frozen at its batch mean). Masked inputs report 0."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y2 = np.asarray(y, dtype=np.float64).reshape(-1, net.n_outputs)
    base = float(np.mean((net.forward(X)[-1] - y2) ** 2))
    sens = np.zeros(net.n_inputs)
    active = net.active_inputs
    if active.size:
        X_abl = _clamp_columns(X, active, X.mean(axis=0)[active])
        if not net.input_mask.all():
            X_abl = X_abl * net.input_mask
        sens[active] = _ablated_mse(net, X_abl, 0, y2) - base
    return sens


@dataclass
class PruneOutcome:
    """Result of :func:`prune_steps`."""

    net: MLP
    val_loss: float
    removed_hidden: int
    removed_inputs: int
    steps: list[str]


def prune_steps(
    net: MLP,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    retrain_config: TrainingConfig,
    tolerance: float = 0.02,
) -> Steps:
    """Iteratively remove the least-sensitive unit/input, retraining each time.

    A removal is *accepted* when, after retraining, validation loss is no
    worse than ``(1 + tolerance) ×`` the best seen; otherwise the removal is
    rolled back and pruning stops. Smaller ``tolerance`` and larger retrain
    budgets give the slower-but-better Exhaustive-Prune behaviour.

    A build for :mod:`repro.ml.nn.lockstep`: yields each retraining as a
    request and returns the :class:`PruneOutcome`; ``drive`` runs one alone.
    """
    best = net.clone()
    best_val = best.loss(X_val, y_val)
    if not np.isfinite(best_val):
        # A non-finite starting loss means the network to prune is already
        # broken; pruning would "accept" every removal against a NaN bound.
        raise NumericalError(
            "cannot prune a network with non-finite validation loss",
            cause="prune-non-finite",
            context={"val_loss": float(best_val)},
        )
    removed_hidden = 0
    removed_inputs = 0
    steps: list[str] = []
    for _ in range(sum(net.hidden_sizes) + net.n_inputs):
        candidate = best.clone()
        hid_sens = hidden_unit_sensitivities(candidate, X_val, y_val)
        # Weakest hidden unit across layers (only layers with > 1 unit).
        weakest: tuple[float, int, int] | None = None
        for li, sens in enumerate(hid_sens):
            if candidate.layer_sizes[li + 1] <= 1:
                continue
            u = int(np.argmin(sens))
            if weakest is None or sens[u] < weakest[0]:
                weakest = (float(sens[u]), li, u)
        choice: str | None = None
        in_sens = input_sensitivities(candidate, X_val, y_val)
        active = candidate.active_inputs
        if active.size > 1:
            j = int(active[np.argmin(in_sens[active])])
            if weakest is None or in_sens[j] < weakest[0]:
                choice = f"input {j}"
                candidate.mask_input(j)
        if choice is None:
            if weakest is None:
                break
            _, li, u = weakest
            choice = f"hidden[{li}] unit {u}"
            candidate.drop_hidden_unit(li, u)

        yield from train_step([candidate], X_train, y_train, retrain_config, X_val, y_val)
        val = candidate.loss(X_val, y_val)
        if val <= best_val * (1.0 + tolerance):
            steps.append(f"removed {choice}: val {best_val:.3g} -> {val:.3g}")
            if choice.startswith("input"):
                removed_inputs += 1
            else:
                removed_hidden += 1
            best = candidate
            best_val = min(best_val, val)
        else:
            steps.append(f"rejected {choice}: val would be {val:.3g} (> tol)")
            break

    return PruneOutcome(
        net=best,
        val_loss=float(best_val),
        removed_hidden=removed_hidden,
        removed_inputs=removed_inputs,
        steps=steps,
    )
