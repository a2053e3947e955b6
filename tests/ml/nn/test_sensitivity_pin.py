"""Bit-identity pin for the prune sensitivities.

``hidden_unit_sensitivities`` and ``input_sensitivities`` drive every
Prune / Exhaustive-Prune removal and the §4.4 input importances. The pruning
tests only look at which unit or input is weakest; these pins fix every
returned value, as a SHA-256 of the arrays' bytes, captured from the
one-forward-per-ablated-unit implementation. They cover one and two hidden
layers, a sigmoid output, masked inputs, a one-row validation set and a
batch large enough for pairwise summation to split its sums.

The pin is exact on purpose: ablating units in one stacked forward pass
must sum and multiply in the same order as one pass per unit. Never add a
tolerance; a BLAS build that breaks identity is re-baselined explicitly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.nn.network import MLP
from repro.ml.nn.pruning import hidden_unit_sensitivities, input_sensitivities
from repro.ml.nn.training import TrainingConfig, train


def _target(X):
    return 0.2 + 0.4 * X[:, 0] + 0.2 * X[:, 1] ** 2 + 0.1 * X[:, 2] * X[:, -1]


def _case(sizes, seed, n_val, output="linear", masked=(), epochs=120):
    """A net trained briefly on seeded data, and a validation set."""
    rng = np.random.default_rng(seed)
    X = rng.random((40, sizes[0]))
    Xv = rng.random((n_val, sizes[0]))
    net = MLP(list(sizes), rng, output=output)
    for j in masked:
        net.mask_input(j)
    train(net, X, _target(X), TrainingConfig(max_epochs=epochs))
    return net, Xv, _target(Xv)


CASES = {
    "one-hidden": dict(sizes=(5, 9, 1), seed=11, n_val=17),
    "two-hidden-sigmoid": dict(sizes=(5, 7, 4, 1), seed=12, n_val=23, output="sigmoid"),
    "masked-inputs": dict(sizes=(6, 8, 1), seed=13, n_val=19, masked=(1, 4)),
    "one-row": dict(sizes=(5, 6, 3, 1), seed=14, n_val=1),
    "wide-masked": dict(sizes=(22, 24, 11, 1), seed=15, n_val=27, masked=(0, 7, 8, 21)),
    "many-rows": dict(sizes=(4, 10, 1), seed=16, n_val=300),
    "untrained": dict(sizes=(5, 12, 5, 1), seed=17, n_val=9, epochs=1),
}

#: case -> (sha256 of the hidden sensitivities, sha256 of the input sensitivities)
PINNED = {
    "many-rows": (
        "a01830ce2641308ad21edfb00f0da0af9e397c28c8ac206a91a6066bea543b4c",
        "a6c2ad12622e13cc42e817020dbab04cdbfe0e51f918cc3a51ed335c99eac64f"),
    "masked-inputs": (
        "16b11b9f92e9e3afe86ecee951c24b5c75fe8f08fe3b6ff10d1215224077c23b",
        "82827c346b1e9b548befc0f51c0be94855f989f5f36ba42b9cd2c48e86b8af8c"),
    "one-hidden": (
        "ceac09493a9988fa7130745c01af27cab97bc2612b7b369e845dd4f62c8e2d9b",
        "51cc453c1d19d104009ba241d021c6407923680dda4ec166d707f31f0d646894"),
    "one-row": (
        "834a709ba2534ebe3ee1397fd4f7bd288b2acc1d20a08d6c862dcd99b6f04400",
        "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"),
    "two-hidden-sigmoid": (
        "6173b77e0ca9925ee5db9cde761ce13b477f0f57a91c535eaa1c554a75995314",
        "d91f4f49ebacd956300a0d0ed189b5d05f99b8c3df72fb3a5a765fa957ceb13f"),
    "untrained": (
        "4e16cd1c601399ed9af0303824e78cd37036c78393d872187c990396365d4ddd",
        "648f18a87cb90ddecbd801e4651a51db8aac32395fa7492d17f12b84356568d7"),
    "wide-masked": (
        "8bb660276ea0ef6496aee3fc540d34f63a8aee6b271d83737c8a2bc856571a45",
        "0f92f6710ac0a7b470149de12e0bc136df27886335a2d085a1905453c1924420"),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_sensitivities_pinned(name):
    net, Xv, yv = _case(**CASES[name])
    hidden = hidden_unit_sensitivities(net, Xv, yv)
    inputs = input_sensitivities(net, Xv, yv)
    assert [s.shape for s in hidden] == [(h,) for h in net.hidden_sizes]
    assert inputs.shape == (net.n_inputs,)
    assert np.all(inputs[~net.input_mask] == 0.0)
    assert (_digest(hidden), _digest([inputs])) == PINNED[name]
