"""Tests for the LRU-vs-Belady oracle benchmark and its synthetic traces.

``benchmarks/`` is not a package; the oracle module is imported by path,
the same way the benchmark script itself runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from cache_oracle import (  # noqa: E402
    N_REQUESTS,
    PINNED,
    belady_hit_rate,
    evaluate_trace,
    replay_lru,
    run_checks,
    synthetic_traces,
)

from repro.loadgen.workloads import WORKLOAD_SHAPES  # noqa: E402


# -- trace generator ---------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    a = synthetic_traces(seed=7)
    b = synthetic_traces(seed=7)
    c = synthetic_traces(seed=8)
    assert tuple(a) == WORKLOAD_SHAPES
    for name in WORKLOAD_SHAPES:
        assert a[name] == b[name]
        assert a[name] != c[name]


def test_generator_workload_shapes():
    traces = synthetic_traces(seed=0)
    for keys in traces.values():
        assert len(keys) == N_REQUESTS
        assert all(k.startswith("k") for k in keys[:100])
    # phase-shift really shifts: each quarter's hot keys (>= 20 uses) sit in
    # its own 150-key window, so the first and last phases share none
    ps = traces["phase_shift"]
    quarter = N_REQUESTS // 4

    def hot(keys):
        return {k for k in set(keys) if keys.count(k) >= 20}

    hot_first, hot_last = hot(ps[:quarter]), hot(ps[-quarter:])
    assert hot_first and all(int(k[1:]) < 150 for k in hot_first)
    assert hot_last and all(450 <= int(k[1:]) < 600 for k in hot_last)
    # oscillating alternates between two disjoint working sets
    osc = traces["oscillating"]
    assert set(osc[:2000]).isdisjoint(set(osc[2000:4000]))


# -- Belady oracle -----------------------------------------------------------


def test_belady_exact_on_tiny_trace():
    # capacity 2, trace a b c a b: OPT evicts c (never reused) -> 2 hits
    assert belady_hit_rate(list("abcab"), 2) == pytest.approx(2 / 5)


def test_belady_perfect_when_everything_fits():
    keys = list("abcabcabc")
    assert belady_hit_rate(keys, 3) == pytest.approx(6 / 9)  # only cold misses


def test_belady_capacity_one():
    assert belady_hit_rate(list("aabbc"), 1) == pytest.approx(2 / 5)


def test_belady_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        belady_hit_rate(list("ab"), 0)


def test_belady_dominates_lru_on_random_trace():
    import random

    rng = random.Random(42)
    keys = [f"k{rng.randrange(60)}" for _ in range(3000)]
    for capacity in (4, 10, 25):
        oracle = belady_hit_rate(keys, capacity)
        rate = replay_lru(keys, capacity)["hit_rate"]
        assert rate <= oracle + 1e-9, \
            f"lru@{capacity} beat the oracle: {rate} > {oracle}"


def test_belady_beats_lru_on_adversarial_loop():
    # cyclic scan of N+1 keys through capacity N: LRU gets zero hits,
    # OPT keeps N-1 of them resident
    keys = [f"k{i % 5}" for i in range(500)]
    assert replay_lru(keys, 4)["hit_rate"] == 0.0
    assert belady_hit_rate(keys, 4) > 0.7


# -- replay + checks ---------------------------------------------------------


def test_replay_lru_counters_match_trace():
    keys = ["a", "b", "a", "c", "a"]
    counters = replay_lru(keys, 10)
    assert counters["hits"] == 2 and counters["misses"] == 3
    assert counters["evictions"] == 0
    assert counters["hit_rate"] == pytest.approx(2 / 5)


def test_evaluate_trace_curves_cover_lru_and_oracle():
    keys = [f"k{i % 30}" for i in range(600)]
    entry = evaluate_trace("loop", keys, fractions=(0.2, 0.5))
    assert entry["n_distinct"] == 30
    assert len(entry["curves"]) == 2
    for curve in entry["curves"]:
        assert set(curve["hit_rate"]) == {"lru", "oracle"}
        assert curve["hit_rate"]["lru"] <= curve["hit_rate"]["oracle"] + 1e-9


def test_pinned_workloads_match_generated_names():
    assert tuple(PINNED) == WORKLOAD_SHAPES
    for pins in PINNED.values():
        assert set(pins) == {"lru", "oracle"}


def test_run_checks_flags_regression_and_oracle_violation():
    # a synthetic workloads dict where LRU "beats" the oracle
    entry = {
        "name": "scan",
        "n_requests": 10,
        "n_distinct": 5,
        "curves": [{
            "capacity": 4, "capacity_fraction": 0.1,
            "hit_rate": {"lru": 0.9, "oracle": 0.5},
        }],
    }
    failures = run_checks({"scan": entry})
    assert any("replay bug" in f for f in failures)
    assert any("pin regression: scan/lru" in f for f in failures)
    assert any("pin regression: scan/oracle" in f for f in failures)


def test_run_checks_pass_at_the_pins():
    entry = {
        "name": "scan",
        "n_requests": 10,
        "n_distinct": 5,
        "curves": [{
            "capacity": 4, "capacity_fraction": 0.1,
            "hit_rate": dict(PINNED["scan"]),
        }],
    }
    assert run_checks({"scan": entry}) == []
