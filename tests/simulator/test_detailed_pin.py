"""Bit pin of the detailed simulator: every ``SimulationResult`` field.

``simulate_detailed`` runs the cache, TLB, predictor and pipeline kernels
per access, and those loops are the place speed work happens. This pin
fixes their joint outcome exactly: for each of the 12 workload profiles, a
20k-instruction trace is simulated under two configurations and every
field of the result must equal the recorded value with ``==``. The 24
configurations cover every (predictor, width cluster, L3 present)
combination, and rotate the L1, L2 and TLB geometries across profiles.

The recorded values must not be regenerated to admit a kernel change: a
kernel rewrite is only correct if it reproduces them as they stand.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.simulator.config import KB, MB, MicroarchConfig
from repro.simulator.machine import simulate_detailed
from repro.simulator.trace import generate_trace
from repro.simulator.workloads import SPEC2000_PROFILES, get_profile

N_INSTRUCTIONS = 20_000
TRACE_SEED = 1234

_PREDICTORS = ("perfect", "bimodal", "2level", "combining")
_WIDTH_CLUSTERS = ((4, 128, 64, 4, 2, 2, 4, 2), (8, 256, 128, 8, 4, 4, 8, 4))
#: All 16 (L3 present, width cluster, predictor) combinations. Profile k
#: takes combinations k and 15 - k, so across the 12 profiles every
#: combination occurs, and each profile's two configurations differ in all
#: three factors.
_COMBOS = list(itertools.product((False, True), _WIDTH_CLUSTERS, _PREDICTORS))


def pin_config(k: int, j: int) -> MicroarchConfig:
    """The ``j``-th (0 or 1) pinned configuration of the ``k``-th profile."""
    c = k if j == 0 else 15 - k
    l3, (w, ruu, lsq, ialu, imult, mem, fpalu, fpmult), bp = _COMBOS[c]
    l1_sizes = (16 * KB, 32 * KB, 64 * KB)
    line = (32, 64)[c % 2]
    itlb, dtlb = ((256 * KB, 512 * KB), (1024 * KB, 2048 * KB))[(c // 3) % 2]
    return MicroarchConfig(
        l1d_size=l1_sizes[c % 3], l1d_line=line, l1d_assoc=4,
        l1i_size=l1_sizes[(c // 3) % 3], l1i_line=line, l1i_assoc=4,
        l2_size=(256 * KB, 1024 * KB)[k % 2], l2_line=128, l2_assoc=(4, 8)[(k // 2) % 2],
        l3_size=8 * MB if l3 else 0, l3_line=256 if l3 else 0, l3_assoc=8 if l3 else 0,
        branch_predictor=bp,
        width=w, issue_wrongpath=bool(k % 2),
        ruu_size=ruu, lsq_size=lsq,
        itlb_size=itlb, dtlb_size=dtlb,
        fu_ialu=ialu, fu_imult=imult, fu_memport=mem,
        fu_fpalu=fpalu, fu_fpmult=fpmult,
    )


#: (app, j) -> (cycles, cpi, n_instructions, l1d_miss_rate, l1i_miss_rate,
#: branch_mispredict_rate, dtlb_miss_rate, mode), recorded from the
#: per-access kernels.
EXPECTED = {
    ('applu', 0): (25314.0, 1.2657, 20000, 0.06635139008311837,
                   0.00295, 0.0, 0.00831183720263686, 'detailed'),
    ('applu', 1): (15021.0, 0.75105, 20000, 0.03324734881054744,
                   0.0015, 0.04239766081871345, 0.00831183720263686, 'detailed'),
    ('equake', 0): (36762.0, 1.8381, 20000, 0.04297213622291022,
                    0.00095, 0.17166212534059946, 0.010773993808049536, 'detailed'),
    ('equake', 1): (22871.0, 1.14355, 20000, 0.08594427244582044,
                    0.00185, 0.15803814713896458, 0.010773993808049536, 'detailed'),
    ('gcc', 0): (83359.0, 4.16795, 20000, 0.11335927367055772,
                 0.04165, 0.231934442513037, 0.014267185473411154, 'detailed'),
    ('gcc', 1): (49704.0, 2.4852, 20000, 0.05667963683527886,
                 0.0209, 0.2088403277874348, 0.014267185473411154, 'detailed'),
    ('mesa', 0): (62322.0, 3.1161, 20000, 0.054895375871867734,
                  0.0189, 0.1706392199349946, 0.011495737535520537, 'detailed'),
    ('mesa', 1): (24357.0, 1.21785, 20000, 0.10268664427796435,
                  0.0377, 0.0, 0.011495737535520537, 'detailed'),
    ('mcf', 0): (78721.0, 3.93605, 20000, 0.29742068020999773,
                 0.0031, 0.0, 0.03686372974206802, 'detailed'),
    ('mcf', 1): (69554.0, 3.4777, 20000, 0.1473407897740242,
                 0.00155, 0.10850515463917526, 0.03686372974206802, 'detailed'),
    ('gzip', 0): (34310.0, 1.7155, 20000, 0.06637240477358182,
                  0.0013, 0.19393218322427128, 0.016674840608141245, 'detailed'),
    ('gzip', 1): (35085.0, 1.75425, 20000, 0.13258133071767206,
                  0.00255, 0.1793575252825699, 0.016674840608141245, 'detailed'),
    ('vpr', 0): (50732.0, 2.5366, 20000, 0.2567793342758,
                 0.00905, 0.18369453044375644, 0.022490682431564067, 'detailed'),
    ('vpr', 1): (46158.0, 2.3079, 20000, 0.15614959516771623,
                 0.00455, 0.20502235982112144, 0.020177355095746047, 'detailed'),
    ('crafty', 0): (65950.0, 3.2975, 20000, 0.05683612251341964,
                    0.0222, 0.2383134738771769, 0.01420903062835491, 'detailed'),
    ('crafty', 1): (27219.0, 1.36095, 20000, 0.11367224502683929,
                    0.04425, 0.0, 0.01420903062835491, 'detailed'),
    ('parser', 0): (39286.0, 1.9643, 20000, 0.15013543144589192,
                    0.01205, 0.0, 0.01960531407197214, 'detailed'),
    ('parser', 1): (52719.0, 2.63595, 20000, 0.07635753901715465,
                    0.00605, 0.17119393556538218, 0.01960531407197214, 'detailed'),
    ('swim', 0): (55468.0, 2.7734, 20000, 0.17412234354819772,
                  0.00245, 0.08653846153846154, 0.0308794176353176, 'detailed'),
    ('swim', 1): (55121.0, 2.75605, 20000, 0.3306328519431725,
                  0.0049, 0.03365384615384615, 0.03510625807209111, 'detailed'),
    ('art', 0): (47970.0, 2.3985, 20000, 0.21521287642782969,
                 0.00245, 0.18051404662283324, 0.02570093457943925, 'detailed'),
    ('art', 1): (44494.0, 2.2247, 20000, 0.10267393561786085,
                 0.00125, 0.12552301255230125, 0.02570093457943925, 'detailed'),
    ('lucas', 0): (39266.0, 1.9633, 20000, 0.09040617265977581,
                   0.0028, 0.09295774647887324, 0.022710729363808413, 'detailed'),
    ('lucas', 1): (39009.0, 1.95045, 20000, 0.18386955888775658,
                   0.0056, 0.0, 0.022710729363808413, 'detailed'),
}

CASES = [(app, k, j) for k, app in enumerate(SPEC2000_PROFILES) for j in (0, 1)]


def test_cases_cover_every_combination():
    seen = {(c.branch_predictor, c.width, c.has_l3)
            for _, k, j in CASES for c in [pin_config(k, j)]}
    assert len(seen) == 16
    assert len(CASES) == 2 * 12


@pytest.fixture(scope="module")
def traces():
    cache = {}

    def get(app):
        if app not in cache:
            cache[app] = generate_trace(get_profile(app), N_INSTRUCTIONS, seed=TRACE_SEED)
        return cache[app]
    return get


@pytest.mark.parametrize("app,k,j", CASES, ids=[f"{a}-{j}" for a, _, j in CASES])
def test_detailed_result_is_pinned(traces, app, k, j):
    result = simulate_detailed(traces(app), pin_config(k, j))
    assert dataclasses.astuple(result) == EXPECTED[(app, j)]
