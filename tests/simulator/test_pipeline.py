"""Tests for the detailed out-of-order pipeline timing model."""

import dataclasses

import numpy as np
import pytest

from repro.simulator.config import enumerate_design_space
from repro.simulator.interval import DEFAULT_LATENCIES
from repro.simulator.isa import FU_CLASSES, OP_LATENCY, OpClass, Trace
from repro.simulator.pipeline import simulate_pipeline


@pytest.fixture(scope="module")
def configs():
    return list(enumerate_design_space())


def _mk_trace(ops, dep=None):
    n = len(ops)
    return Trace(
        op=np.array(ops, dtype=np.uint8),
        pc=np.arange(n, dtype=np.uint64) * 4,
        addr=np.zeros(n, dtype=np.uint64),
        taken=np.zeros(n, dtype=bool),
        dep_dist=np.array(dep if dep is not None else [0] * n, dtype=np.uint16),
        interval_id=np.zeros(n, dtype=np.uint32),
        block_id=np.zeros(n, dtype=np.uint32),
    )


def _zeros(n):
    return np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)


def _find(configs, **want):
    for c in configs:
        if all(getattr(c, k) == v for k, v in want.items()):
            return c
    raise AssertionError(f"no config with {want}")


class TestThroughputLimits:
    def test_ideal_ipc_bounded_by_width(self, configs):
        n = 4000
        trace = _mk_trace([int(OpClass.IALU)] * n)
        mem, ifetch, mis = _zeros(n)
        cfg = _find(configs, width=4, branch_predictor="perfect")
        res = simulate_pipeline(trace, cfg, mem, ifetch, mis)
        assert 1.0 / res.cpi <= 4.0 + 1e-9
        assert 1.0 / res.cpi > 3.0  # near-ideal with no hazards

    def test_wider_machine_faster(self, configs):
        n = 4000
        trace = _mk_trace([int(OpClass.IALU)] * n)
        mem, ifetch, mis = _zeros(n)
        r4 = simulate_pipeline(trace, _find(configs, width=4, branch_predictor="perfect"),
                               mem, ifetch, mis)
        r8 = simulate_pipeline(trace, _find(configs, width=8, branch_predictor="perfect"),
                               mem, ifetch, mis)
        assert r8.cycles < r4.cycles

    def test_fu_contention_limits_imult(self, configs):
        # All-imult stream on 2 multipliers: throughput <= 2/cycle.
        n = 2000
        trace = _mk_trace([int(OpClass.IMULT)] * n)
        mem, ifetch, mis = _zeros(n)
        cfg = _find(configs, width=4, branch_predictor="perfect")
        res = simulate_pipeline(trace, cfg, mem, ifetch, mis)
        assert 1.0 / res.cpi <= cfg.fu_imult + 0.01


class TestHazards:
    def test_serial_dependency_chain_is_one_ipc(self, configs):
        # Every op depends on its predecessor: IPC can't exceed 1/latency.
        n = 2000
        trace = _mk_trace([int(OpClass.IALU)] * n, dep=[1] * n)
        mem, ifetch, mis = _zeros(n)
        cfg = _find(configs, width=8, branch_predictor="perfect")
        res = simulate_pipeline(trace, cfg, mem, ifetch, mis)
        assert res.cpi >= 0.98

    def test_memory_latency_stalls_dependents(self, configs):
        n = 2000
        ops = [int(OpClass.LOAD), int(OpClass.IALU)] * (n // 2)
        dep = [1, 1] * (n // 2)  # fully serial: load <- alu <- load <- ...
        trace = _mk_trace(ops, dep)
        cfg = _find(configs, width=4, branch_predictor="perfect")
        mem_fast, ifetch, mis = _zeros(n)
        slow = np.zeros(n)
        slow[::2] = 50.0  # every load misses with 50-cycle latency
        fast = simulate_pipeline(trace, cfg, mem_fast, ifetch, mis)
        stall = simulate_pipeline(trace, cfg, slow, ifetch, mis)
        assert stall.cycles > fast.cycles * 3

    def test_independent_misses_overlap(self, configs):
        # Without dependencies the window hides most of the miss latency.
        n = 2000
        ops = [int(OpClass.LOAD)] * n
        trace = _mk_trace(ops)
        cfg = _find(configs, width=4, branch_predictor="perfect")
        lat = np.full(n, 50.0)
        ifetch, mis = np.zeros(n), np.zeros(n, dtype=bool)
        res = simulate_pipeline(trace, cfg, lat, ifetch, mis)
        # Serialized cost would be ~50 CPI; overlap must do far better.
        assert res.cpi < 30.0

    def test_mispredicts_add_cycles(self, configs):
        n = 3000
        ops = ([int(OpClass.IALU)] * 4 + [int(OpClass.BRANCH)]) * (n // 5)
        trace = _mk_trace(ops)
        cfg = _find(configs, width=4, branch_predictor="bimodal")
        mem, ifetch, _ = _zeros(n)
        none = np.zeros(n, dtype=bool)
        some = np.zeros(n, dtype=bool)
        some[4::10] = True  # half the branches mispredict
        clean = simulate_pipeline(trace, cfg, mem, ifetch, none)
        dirty = simulate_pipeline(trace, cfg, mem, ifetch, some)
        assert dirty.cycles > clean.cycles * 1.3

    def test_ifetch_stalls_add_cycles(self, configs):
        n = 2000
        trace = _mk_trace([int(OpClass.IALU)] * n)
        cfg = _find(configs, width=4, branch_predictor="perfect")
        mem, _, mis = _zeros(n)
        stalls = np.zeros(n)
        stalls[::20] = 12.0
        clean = simulate_pipeline(trace, cfg, mem, np.zeros(n), mis)
        dirty = simulate_pipeline(trace, cfg, mem, stalls, mis)
        assert dirty.cycles > clean.cycles


class TestInterface:
    def test_empty_trace(self, configs):
        res = simulate_pipeline(
            _mk_trace([]), configs[0], np.zeros(0), np.zeros(0),
            np.zeros(0, dtype=bool),
        )
        assert res.cycles == 0.0 and res.n_instructions == 0

    def test_shape_validation(self, configs):
        trace = _mk_trace([0, 0, 0])
        with pytest.raises(ValueError):
            simulate_pipeline(trace, configs[0], np.zeros(2), np.zeros(3),
                              np.zeros(3, dtype=bool))


def _scan_scoreboard(trace, config, mem_latency, ifetch_latency, mispredicted,
                     latencies=DEFAULT_LATENCIES):
    """The scoreboard written out literally: per-instruction numpy arrays,
    ``max()``, a linear scan for the earliest-free unit of each pool, and
    LSQ ordinals from a cumulative sum. Returns the cycle count."""
    n = len(trace)
    width, ruu, lsq = config.width, config.ruu_size, config.lsq_size
    depth = latencies.frontend_depth if width == 4 else latencies.frontend_depth_wide
    ops = trace.op
    base_lat = np.array([OP_LATENCY[OpClass(v)] for v in range(7)], dtype=np.float64)
    exec_lat = base_lat[ops] + mem_latency
    pools = {name: [0.0] * config.fu_count(name)
             for name in ("ialu", "imult", "memport", "fpalu", "fpmult")}
    fetch_t, complete_t, commit_t = np.zeros(n), np.zeros(n), np.zeros(n)
    is_mem = (ops == int(OpClass.LOAD)) | (ops == int(OpClass.STORE))
    mem_seq = np.cumsum(is_mem) - 1
    mem_commit = []
    barrier = 0.0
    for i in range(n):
        ft = barrier + ifetch_latency[i]
        if i >= width:
            ft = max(ft, fetch_t[i - width] + 1.0)
        if i >= ruu:
            ft = max(ft, commit_t[i - ruu])
        fetch_t[i] = ft
        ready = ft + 1.0
        d = int(trace.dep_dist[i])
        if 0 < d <= i:
            ready = max(ready, complete_t[i - d])
        if is_mem[i] and mem_seq[i] >= lsq:
            ready = max(ready, mem_commit[mem_seq[i] - lsq])
        pool = pools[FU_CLASSES[OpClass(int(ops[i]))]]
        u_min = min(range(len(pool)), key=pool.__getitem__)
        issue = max(ready, pool[u_min])
        pool[u_min] = issue + 1.0
        complete_t[i] = issue + exec_lat[i]
        ct = complete_t[i]
        if i >= 1:
            ct = max(ct, commit_t[i - 1])
        if i >= width:
            ct = max(ct, commit_t[i - width] + 1.0)
        commit_t[i] = ct
        if is_mem[i]:
            mem_commit.append(ct)
        if mispredicted[i]:
            barrier = max(barrier, complete_t[i] + depth)
    return float(commit_t[-1])


class TestScanReference:
    """The heap-pool list kernel equals the literal scan scoreboard bit for
    bit, on random streams and machine shapes the Table-1 space never uses
    (one-unit and odd-sized pools, an RUU narrower than the width, a tiny
    LSQ)."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_streams_and_shapes(self, configs, seed):
        rng = np.random.default_rng(seed)
        # Every (width, RUU below / near / above width) pair, on a short
        # stream that exposes start-up timing and on a long one.
        width = (1, 2, 4, 8)[seed % 4]
        ruu = (1, width // 2 + 1, 3 * width)[seed % 3]
        n = 9 if seed < 12 else 600
        ops = rng.integers(0, 7, n)
        trace = _mk_trace(ops.tolist(), rng.integers(0, 12, n).tolist())
        mem = np.where((ops == 2) | (ops == 3),
                       rng.choice([0.0, 0.0, 10.0, 36.0, 250.0, 2.5], n), 0.0)
        ifetch = np.where(rng.random(n) < 0.05, rng.choice([10.0, 30.0], n), 0.0)
        mis = (ops == int(OpClass.BRANCH)) & (rng.random(n) < 0.3)
        cfg = dataclasses.replace(
            configs[int(rng.integers(len(configs)))], width=width,
            ruu_size=ruu, lsq_size=int(rng.integers(1, 12)),
            **{f"fu_{name}": int(rng.integers(1, 6))
               for name in ("ialu", "imult", "memport", "fpalu", "fpmult")})
        got = simulate_pipeline(trace, cfg, mem, ifetch, mis).cycles
        assert got == _scan_scoreboard(trace, cfg, mem, ifetch, mis)
