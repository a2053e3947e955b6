"""Bit-identity pin for the four predictor-selection methods (LR-E/F/B/S).

Each method is fit on the 2005 opteron-2 records (55 rows, 6 numeric
predictors), plain and with the degree-2 expansion (27 predictors), and
compared exactly against values captured before the stepwise candidate
fits were made cheaper: the retained predictors, the add/drop history,
the final fit's p-values, a SHA-256 over the final fit's statistics, and
how many ill-conditioned solves the fit counted. The 5-rep holdout
estimate is pinned per repetition.

Candidate fits read only the SSE and residual degrees of freedom, so any
change that moves a bit here is a behaviour change; never add a tolerance.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.linear.model import LinearRegressionModel
from repro.ml.selection import estimate_error
from repro.obs.metrics import default_registry
from repro.specdata.generator import generate_family_records
from repro.specdata.schema import records_to_dataset

_REDUCED = (6.209581539647309e-17, 2.6797327262447214e-09, 1.8795239641462747e-08,
            5.455193348566063e-07)
_ADDS = ("add x0 (p=2.667e-08)", "add x1 (p=8.02e-05)", "add x2 (p=6.439e-06)",
         "add x3 (p=5.455e-07)")

#: (method, interactions) -> (selected, history, p_values, sha256 of the
#: final fit's coef/se/t/p/intercept/sse/sigma2, ill-conditioned solves)
PINNED = {
    ("enter", False): (
        (0, 1, 2, 3, 4, 5), ("enter: all",),
        (1.7579981334076243e-16, 1.9695616372358423e-08, 2.9326548404498576e-08,
         6.420365802834269e-07, 0.6357831904190968, 0.4161264229360329),
        "0689472b2fc864514efaec732da409eaeaf7b6ca35b8cbc6e913ef1d2a592b47", 0),
    ("forward", False): (
        (0, 1, 2, 3), _ADDS, _REDUCED,
        "e4f1b9e767df96cc6fc39059facc6c4d2c7b0260ee014fb4f153f8f0c9672c6b", 0),
    ("backward", False): (
        (0, 1, 2, 3), ("drop x4 (p=0.6358)", "drop x5 (p=0.366)"), _REDUCED,
        "e4f1b9e767df96cc6fc39059facc6c4d2c7b0260ee014fb4f153f8f0c9672c6b", 0),
    ("stepwise", False): (
        (0, 1, 2, 3), _ADDS, _REDUCED,
        "e4f1b9e767df96cc6fc39059facc6c4d2c7b0260ee014fb4f153f8f0c9672c6b", 0),
    ("enter", True): (
        tuple(range(27)), ("enter: all",),
        (0.039076414941433754, 0.023481271390053286, 0.0468005078128601,
         0.3225386646097622, 0.7135532817095634, 0.857918999977272,
         0.03907641494141181, 0.02348127139005342, 0.014349364621460718,
         0.32253866460981295, 0.8094131356107197, 0.7779859409826997,
         0.7170635192707119, 0.11446728271756978, 0.7221464282498368,
         0.3124095275585984, 0.5518607451767428, 0.7831095894516156,
         0.8020723864271109, 0.7291059714856917, 0.6227002005817638,
         0.3076366534720433, 0.7290405596658819, 0.8162053679900171,
         0.7726317145721953, 0.32840369602593067, 0.8087010276746238),
        "86d12d8edf12a6be61f437ee022989321432440628630188b89321523bc0ce8a", 1),
    ("forward", True): (
        (0, 2, 7, 8, 12, 18, 20),
        ("add x12 (p=2.934e-09)", "add x2 (p=0.0001203)", "add x18 (p=2.245e-06)",
         "add x0 (p=0.00443)", "add x7 (p=0.001144)", "add x8 (p=0.0197)",
         "add x20 (p=0.0166)"),
        (1.8953594487847285e-05, 1.5935440070326943e-05, 0.000289607195225387,
         0.0023043147160907904, 0.4817261119582229, 3.0643735147688543e-08,
         0.01659868852376497),
        "8d6b32ee810e8a680159ed1a51889f6f07b69e314965f7976e795ce575ddb0d1", 7),
    ("backward", True): (
        (2, 6, 7, 8, 9, 20),
        ("drop x3 (p=1)", "drop x0 (p=1)", "drop x1 (p=1)", "drop x5 (p=0.8579)",
         "drop x23 (p=0.8527)", "drop x18 (p=0.8735)", "drop x17 (p=0.9138)",
         "drop x19 (p=0.8295)", "drop x24 (p=0.8237)", "drop x12 (p=0.8461)",
         "drop x14 (p=0.6704)", "drop x11 (p=0.7284)", "drop x4 (p=0.6467)",
         "drop x10 (p=0.7441)", "drop x22 (p=0.581)", "drop x16 (p=0.3939)",
         "drop x15 (p=0.3562)", "drop x21 (p=0.1921)", "drop x25 (p=0.1909)",
         "drop x26 (p=0.2451)", "drop x13 (p=0.1149)"),
        (1.1558029516886038e-05, 7.035877086725503e-19, 4.375624238774035e-11,
         0.0015553615581445329, 1.0694568138636806e-08, 0.016419682534897413),
        "1d755a4ea867887a20c8bfce434f61a14b6f796b4588e06037018c6d019a94cd", 77),
    ("stepwise", True): (
        (0, 2, 7, 8, 18, 20),
        ("add x12 (p=2.934e-09)", "add x2 (p=0.0001203)", "add x18 (p=2.245e-06)",
         "add x0 (p=0.00443)", "add x7 (p=0.001144)", "drop x12 (p=0.965)",
         "add x8 (p=0.02013)", "add x20 (p=0.01894)"),
        (4.701952384382771e-18, 1.6274914798972664e-05, 9.072150328113707e-07,
         0.0027224270255509432, 2.769749678474807e-08, 0.01894158095414669),
        "c07a9b0a15b9a545023dcc6dea2773bd298ab75494792b095fe53b5430b2eaa9", 7),
}

#: (method, interactions) -> ``estimate_error`` per_rep, rng seed 5, five reps.
PINNED_PER_REP = {
    ("enter", False): (2.2446225995471023, 1.9779933085411907, 1.9401070605373534,
                       1.7571549604209509, 1.8751566490650797),
    ("forward", False): (1.705719413432114, 1.6643128110346248, 1.8709614020534528,
                         1.7463159296368471, 1.8217194478219696),
    ("backward", False): (1.9790742306855929, 1.6643128110346248, 1.8709614020534528,
                          1.7463159296368471, 1.8217194478219696),
    ("stepwise", False): (1.705719413432114, 1.6643128110346248, 1.8709614020534528,
                          1.7463159296368471, 1.8217194478219696),
    ("enter", True): (4.983777239671487, 6.243619509313322, 3.6057644167020872,
                      11.647159590898205, 3.196676027501169),
    ("forward", True): (1.8987385654532363, 1.960526012121709, 2.2102045640781607,
                        2.148845620007944, 2.3090941778037144),
    ("backward", True): (3.2397112161615342, 2.3581667338935026, 1.6475116573796595,
                         6.909269839392927, 2.7581120704668787),
    ("stepwise", True): (2.5821204292036657, 1.9865458008368193, 2.2102045640781607,
                         2.148845620007944, 2.3090941778037144),
}


@pytest.fixture(scope="module")
def dataset():
    recs = [r for r in generate_family_records("opteron-2", seed=1) if r.year == 2005]
    return records_to_dataset(recs)


def _ill_conditioned() -> float:
    counter = default_registry().get("robust.lsq.ill_conditioned")
    return counter.value if counter is not None else 0.0


@pytest.mark.parametrize("method, interactions", list(PINNED),
                         ids=[f"{m}{'+int' if i else ''}" for m, i in PINNED])
def test_selection_pinned(method, interactions, dataset):
    selected, history, p_values, fit_sha, ill = PINNED[method, interactions]
    before = _ill_conditioned()
    model = LinearRegressionModel(method=method, interactions=interactions).fit(dataset)
    assert _ill_conditioned() - before == ill
    result = model._result
    assert result.selected == selected
    assert result.history == history
    fit = result.fit
    assert tuple(fit.p_values.tolist()) == p_values
    stats = (fit.coef, fit.se, fit.t_values, fit.p_values,
             [fit.intercept, fit.sse, fit.sigma2])
    digest = hashlib.sha256(b"".join(np.asarray(a, dtype=np.float64).tobytes()
                                     for a in stats)).hexdigest()
    assert digest == fit_sha


@pytest.mark.parametrize("method, interactions", list(PINNED_PER_REP),
                         ids=[f"{m}{'+int' if i else ''}" for m, i in PINNED_PER_REP])
def test_holdout_estimate_pinned(method, interactions, dataset):
    est = estimate_error(
        lambda: LinearRegressionModel(method=method, interactions=interactions),
        dataset, np.random.default_rng(5), n_reps=5)
    assert est.per_rep == PINNED_PER_REP[method, interactions]
