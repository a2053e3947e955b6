"""Bit-identity pin for the repeated-holdout error estimate of all six NN
methods (NN-Q/D/M/P/E/S).

Each estimate runs five repetitions on the 2005 opteron-2 records (55
rows, 22 encoded inputs) with split rng seed 5 and model seed 3, and is
compared exactly against the per-repetition errors captured before the
holdout reps were trained in lockstep. The first three NN-E values are the
ones ``test_kernel_pin.py`` pins for its three-rep estimate.

Training draws nothing from any rng and every stacked update is
element-wise, so any change that moves a bit here is a behaviour change;
never add a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.nn.model import NeuralNetworkModel
from repro.ml.selection import estimate_error
from repro.specdata.generator import generate_family_records
from repro.specdata.schema import records_to_dataset

PINNED_PER_REP = {
    "quick": (3.186012516585882, 3.0595041835609234, 3.6742688230193243,
              2.9293437473978567, 2.3749869251075335),
    "dynamic": (3.3462239412214707, 3.7101173797654066, 3.05745911873386,
                3.7748992368732917, 2.5134749329719344),
    "multiple": (2.648743208439068, 2.4279259944541725, 2.5006855173523745,
                 3.0009865972149075, 2.0734873759850507),
    "prune": (3.321894226920515, 2.378919743242793, 2.7166791128589374,
              2.2002736002554504, 3.0735708371518995),
    "exhaustive": (2.6396547794632386, 2.5672368767908016, 2.2477084005944565,
                   2.5523139768850025, 3.8250040227011604),
    "single": (2.464309309096969, 2.4080094292196974, 2.5337844423529594,
               3.683092562439314, 2.2329185183612856),
}


@pytest.fixture(scope="module")
def dataset():
    recs = [r for r in generate_family_records("opteron-2", seed=1) if r.year == 2005]
    return records_to_dataset(recs)


@pytest.mark.parametrize("method", list(PINNED_PER_REP))
def test_holdout_estimate_pinned(method, dataset):
    est = estimate_error(lambda: NeuralNetworkModel(method=method, seed=3),
                         dataset, np.random.default_rng(5), n_reps=5)
    assert est.per_rep == PINNED_PER_REP[method]
