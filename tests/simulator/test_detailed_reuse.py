"""Per-trace component reuse in ``simulate_detailed``: the outcomes kept on
a trace change no result, whatever the order or repetition of configs."""

import dataclasses

import numpy as np
import pytest

from repro.simulator.config import enumerate_design_space
from repro.simulator.machine import simulate_detailed
from repro.simulator.trace import generate_trace
from repro.simulator.workloads import get_profile


@pytest.fixture(scope="module")
def sample():
    """Configs that share some components and differ in others."""
    configs = list(enumerate_design_space())
    rng = np.random.default_rng(7)
    picks = rng.choice(len(configs), 10, replace=False).tolist()
    return configs[:4] + [configs[i] for i in picks]


def _fresh(trace):
    """The same arrays in a new trace object, with nothing memoized."""
    return dataclasses.replace(trace)


def _component_keys(config):
    return {
        ("l1i", config.l1i_size, config.l1i_line, config.l1i_assoc),
        ("itlb", config.itlb_size),
        ("l1d", config.l1d_size, config.l1d_line, config.l1d_assoc),
        ("dtlb", config.dtlb_size),
        ("predictor", config.branch_predictor),
    }


@pytest.mark.parametrize("app", ["gcc", "mcf"])
def test_orders_repeats_and_fresh_copies_agree(app, sample):
    trace = generate_trace(get_profile(app), 6000, seed=3)
    # Reference: every config simulated on its own fresh copy (no reuse).
    want = [simulate_detailed(_fresh(trace), c) for c in sample]
    order = np.random.default_rng(1).permutation(len(sample)).tolist()
    for sequence in (range(len(sample)), order, order[::-1]):
        for k in sequence:
            assert simulate_detailed(trace, sample[k]) == want[k]
    assert [simulate_detailed(_fresh(trace), c) for c in sample] == want


def test_memo_holds_one_entry_per_component_key(sample):
    trace = generate_trace(get_profile("gcc"), 6000, seed=3)
    assert trace._outcomes == {}
    for config in sample + sample[:3]:
        simulate_detailed(trace, config)
    want = set().union(*(_component_keys(c) for c in sample))
    assert set(trace._outcomes) == want
    assert len(trace._outcomes) < 5 * len(sample)  # some components shared


def test_slice_starts_an_empty_memo(sample):
    trace = generate_trace(get_profile("gcc"), 6000, seed=3)
    simulate_detailed(trace, sample[0])
    assert trace._outcomes
    assert trace.slice(0, len(trace))._outcomes == {}
