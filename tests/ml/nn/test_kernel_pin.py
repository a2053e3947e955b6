"""Bit-identity pin for the six NN training methods (NN-Q/D/M/P/E/S).

Each method is fit on one small seeded problem (the 2005 opteron-2
records, 55 rows, 22 encoded inputs) and its outputs are compared exactly
against values captured before the training loop was rewritten as a
replica-stacked kernel: the predictions as a SHA-256 of their bytes, the
builder's validation loss, the trained topology and the build notes.
NN-E's repeated-holdout error estimate is pinned per repetition. One
direct ``train`` call per optimizer (masked input, validation set) is
pinned too, down to the bytes of its loss history and final weights.

The pin is exact on purpose: every training update is element-wise and
every BLAS call is made per replica, so any change to the kernel that
moves a bit is a behaviour change. If a BLAS build breaks bit-identity,
re-baseline these values explicitly and say so; never add a tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.nn.model import NeuralNetworkModel
from repro.ml.nn.network import MLP
from repro.ml.nn.training import TrainingConfig, train
from repro.ml.selection import estimate_error
from repro.specdata.generator import generate_family_records
from repro.specdata.schema import records_to_dataset

SEED = 3

#: method -> (sha256 of predictions, val_loss, topology, build_notes)
PINNED = {
    "quick": (
        "c4068ad93beb916c17a3f375f2a97c1feaa084b207695e7b7ad956b5304deeda",
        0.0028490527808396884, [22, 16, 1], ["hidden=[16]", "epochs=275"]),
    "dynamic": (
        "11e724c1fc14cd64fd63e7b76436ded7c16d59aedce04bfc80a9fc9bc42e85e8",
        0.0033143888522718804, [22, 4, 1],
        ["start hidden=2, val=0.00351", "grew to 4, val=0.00331",
         "stop growth at 4 (trial val=0.00342)"]),
    "multiple": (
        "d6739cf1903b2fa6fc9cb7cf4f6d133efa463fac2853ceefb996ec8fe219d387",
        0.003971778813668459, [22, 24, 1],
        ["topology [7]: val=0.00516", "topology [16]: val=0.00546",
         "topology [24]: val=0.00397", "topology [11, 5]: val=0.00867"]),
    "prune": (
        "17a136452bff4109f1ba6806c823e35ef1667a24e2b44701b7c48e885874f04f",
        0.003676874719069121, [22, 21, 11, 1], ["pruned 1 hidden, 0 inputs"]),
    "exhaustive": (
        "42ef977ae2c0002f09c90e5eb5747489f21dbd46765ff7c29785f08b3ad1dd92",
        0.002280451808177308, [22, 24, 11, 1],
        ["restart 0: val=0.00324 (-0h/-0i)", "restart 1: val=0.00315 (-0h/-0i)",
         "restart 2: val=0.00228 (-2h/-5i)"]),
    "single": (
        "aa5d1915f0f4172e79859c579cae4e2437ea1b68f5ea7afa295f0b61a404462a",
        0.004082340202064038, [22, 16, 1], ["hidden=16", "epochs=204"]),
}

#: NN-E ``estimate_error`` on the same problem, rng seed 5, three reps.
PINNED_NN_E_PER_REP = (2.6396547794632386, 2.5672368767908016, 2.2477084005944565)


@pytest.fixture(scope="module")
def dataset():
    recs = [r for r in generate_family_records("opteron-2", seed=1) if r.year == 2005]
    return records_to_dataset(recs)


@pytest.mark.parametrize("method", list(PINNED))
def test_method_outputs_pinned(method, dataset):
    sha, val_loss, topology, notes = PINNED[method]
    model = NeuralNetworkModel(method=method, seed=SEED).fit(dataset)
    pred = model.predict(dataset)
    assert hashlib.sha256(pred.tobytes()).hexdigest() == sha
    assert model._build.val_loss == val_loss
    assert model.topology == topology
    assert model.build_notes == notes


def test_exhaustive_holdout_estimate_pinned(dataset):
    est = estimate_error(lambda: NeuralNetworkModel(method="exhaustive", seed=SEED),
                         dataset, np.random.default_rng(5), n_reps=3)
    assert est.per_rep == PINNED_NN_E_PER_REP


#: config name -> (sha256 of loss history, sha256 of final weights,
#: epochs_run, best_val_loss, final_train_loss)
PINNED_TRAIN = {
    "rprop": (
        "0d888341859bf98104388fbb86d14c697d60cda888f77948f6b434d11001fbcb",
        "874d03eb28be864dbb60806810949d613cffd5fb524cd956fa6ab33696d6a8d1",
        45, 0.004909649788473553, 0.00828154666535639),
    "gd-constant": (
        "8cb68f9ec263cb24e1a29f65707b29fe6e31cb63d0f0fb97b758c27a5ce21906",
        "b03b24118b60c3c5d5f535d2c0d84947cb0186a37d36099187ee5cbeab9c1633",
        49, 0.004762224365819673, 0.008148962841112602),
}

TRAIN_CONFIGS = {
    "rprop": TrainingConfig(max_epochs=400, patience=40),
    "gd-constant": TrainingConfig(optimizer="gd", max_epochs=400, patience=40,
                                  learning_rate=0.15),
}


@pytest.mark.parametrize("name", list(PINNED_TRAIN))
def test_train_call_pinned(name):
    history_sha, weights_sha, epochs, best_val, final_train = PINNED_TRAIN[name]
    rng = np.random.default_rng(0)
    X, Xv = rng.random((40, 3)), rng.random((15, 3))
    y = 0.2 + 0.5 * X[:, 0] * X[:, 1] + 0.1 * X[:, 2]
    yv = 0.2 + 0.5 * Xv[:, 0] * Xv[:, 1] + 0.1 * Xv[:, 2]
    net = MLP([3, 5, 3, 1], np.random.default_rng(21))
    net.mask_input(1)
    result = train(net, X, y, TRAIN_CONFIGS[name], Xv, yv)
    assert hashlib.sha256(np.array(result.loss_history).tobytes()).hexdigest() == history_sha
    assert hashlib.sha256(b"".join(w.tobytes() for w in net.weights)).hexdigest() == weights_sha
    assert result.epochs_run == epochs
    assert result.best_val_loss == best_val
    assert result.final_train_loss == final_train
