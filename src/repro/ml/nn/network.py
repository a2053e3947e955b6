"""Feed-forward multilayer perceptron with backpropagation (numpy).

A from-scratch reimplementation of the network underlying Clementine's NN
node: fully connected layers, saturating (tan-sigmoid) hidden units — the
paper (§3.2) lists "linear, hard limit, sigmoid, or tan-sigmoid" hidden
activations — a linear output over range-scaled targets (§3.4),
squared-error loss, gradients by reverse-mode accumulation. The representation supports the structural edits the Prune /
Exhaustive-Prune training methods need — dropping hidden units and masking
inputs — without disturbing the remaining weights.

Weights are stored as a list of ``(fan_in + 1, fan_out)`` matrices whose
first row is the bias, so the forward pass is a chain of GEMMs on
contiguous arrays (cf. the HPC guideline: vectorize, avoid per-unit Python
loops).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.nn.activations import Activation, get_activation

__all__ = ["MLP"]


class MLP:
    """A fully-connected feed-forward network for scalar regression.

    Parameters
    ----------
    layer_sizes:
        ``[n_inputs, hidden_1, ..., hidden_k, n_outputs]``; at least one
        hidden layer is required (a zero-hidden-layer MLP is just the
        linear-regression model, which has its own implementation).
    rng:
        Generator for weight initialization.
    hidden, output:
        Activation names (default tanh hidden / linear output).
    init_scale:
        Weights start uniform in ``±init_scale / sqrt(fan_in)``.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        rng: np.random.Generator,
        hidden: str = "tanh",
        output: str = "linear",
        init_scale: float = 1.0,
    ) -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError(f"need [in, hidden..., out], got {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        self.layer_sizes = sizes
        self.hidden_act: Activation = get_activation(hidden)
        self.output_act: Activation = get_activation(output)
        self.weights: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = init_scale / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in + 1, fan_out))
            self.weights.append(w)
        # Input mask: pruned inputs are silenced without re-indexing columns,
        # so the encoder's feature order stays valid after input pruning.
        self.input_mask = np.ones(sizes[0], dtype=bool)

    # -- basic properties ----------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def hidden_sizes(self) -> list[int]:
        return self.layer_sizes[1:-1]

    @property
    def n_params(self) -> int:
        return int(sum(w.size for w in self.weights))

    def clone(self) -> "MLP":
        """Deep copy (weights and mask)."""
        dup = object.__new__(MLP)
        dup.layer_sizes = list(self.layer_sizes)
        dup.hidden_act = self.hidden_act
        dup.output_act = self.output_act
        dup.weights = [w.copy() for w in self.weights]
        dup.input_mask = self.input_mask.copy()
        return dup

    # -- forward / backward ----------------------------------------------------

    def _masked(self, X: np.ndarray) -> np.ndarray:
        if self.input_mask.all():
            return X
        return X * self.input_mask  # broadcast row-wise

    def forward(self, X: np.ndarray) -> list[np.ndarray]:
        """Return the list of layer activations, inputs first, output last."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} inputs, got {X.shape[1]}")
        acts = [self._masked(X)]
        a = acts[0]
        last = len(self.weights) - 1
        for li, w in enumerate(self.weights):
            z = a @ w[1:] + w[0]
            act = self.output_act if li == last else self.hidden_act
            a = act.fn(z)
            acts.append(a)
        return acts

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Network output, shape ``(n,)`` for scalar regression."""
        out = self.forward(X)[-1]
        return out[:, 0] if self.n_outputs == 1 else out

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error over the batch."""
        y = np.asarray(y, dtype=np.float64).reshape(-1, self.n_outputs)
        out = self.forward(X)[-1]
        diff = out - y
        return float(np.mean(diff * diff))

    def loss_and_grad(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray]]:
        """MSE and its gradient w.r.t. every weight matrix (backprop).

        Training runs its own replica-stacked backward pass
        (:mod:`repro.ml.nn.training`); this one is its test reference.
        """
        y = np.asarray(y, dtype=np.float64).reshape(-1, self.n_outputs)
        acts = self.forward(X)
        out = acts[-1]
        diff = out - y
        loss = float(np.mean(diff * diff))

        grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        # d(loss)/d(z_last): 2/(n*q) * diff * act'(out)
        delta = (2.0 / diff.size) * diff * self.output_act.deriv_from_output(out)
        for li in range(len(self.weights) - 1, -1, -1):
            a_prev = acts[li]
            g = np.empty_like(self.weights[li])
            g[0] = delta.sum(axis=0)
            g[1:] = a_prev.T @ delta
            grads[li] = g
            if li > 0:
                delta = (delta @ self.weights[li][1:].T) * self.hidden_act.deriv_from_output(a_prev)
        return loss, grads

    # -- structural edits (for pruning) --------------------------------------

    def drop_hidden_unit(self, hidden_layer: int, unit: int) -> None:
        """Remove one unit from hidden layer ``hidden_layer`` (0-based).

        The unit's incoming column and outgoing row are deleted; everything
        else is untouched, so retraining resumes from the surviving weights.
        """
        n_hidden = len(self.layer_sizes) - 2
        if not (0 <= hidden_layer < n_hidden):
            raise ValueError(f"hidden_layer must be in [0, {n_hidden}), got {hidden_layer}")
        size = self.layer_sizes[hidden_layer + 1]
        if size <= 1:
            raise ValueError("cannot drop the last unit of a hidden layer")
        if not (0 <= unit < size):
            raise ValueError(f"unit must be in [0, {size}), got {unit}")
        w_in = self.weights[hidden_layer]
        w_out = self.weights[hidden_layer + 1]
        self.weights[hidden_layer] = np.delete(w_in, unit, axis=1)
        self.weights[hidden_layer + 1] = np.delete(w_out, unit + 1, axis=0)  # +1: bias row
        self.layer_sizes[hidden_layer + 1] = size - 1

    def mask_input(self, index: int) -> None:
        """Silence input ``index`` (prune an input field)."""
        if not (0 <= index < self.n_inputs):
            raise ValueError(f"index must be in [0, {self.n_inputs}), got {index}")
        if self.input_mask.sum() <= 1 and self.input_mask[index]:
            raise ValueError("cannot mask the last active input")
        self.input_mask[index] = False

    @property
    def active_inputs(self) -> np.ndarray:
        """Indices of inputs that are still unmasked."""
        return np.flatnonzero(self.input_mask)

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return (
            f"MLP(layers={self.layer_sizes}, hidden={self.hidden_act.name}, "
            f"output={self.output_act.name}, active_inputs={int(self.input_mask.sum())})"
        )
