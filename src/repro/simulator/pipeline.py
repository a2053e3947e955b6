"""Detailed out-of-order pipeline timing model (scoreboard style).

A cycle-approximate model of SimpleScalar's ``sim-outorder`` machine: each
dynamic instruction is processed in program order through fetch → dispatch
→ issue → execute → in-order commit, with

* **fetch bandwidth** of ``width`` instructions/cycle, stalled by I-cache
  miss latency and redirected (after resolution + front-end depth) by
  branch mispredictions;
* **register dependencies** from the trace's producer distances;
* **functional-unit contention** per Table-1 pool (ialu / imult / memport /
  fpalu / fpmult), fully pipelined units;
* **RUU occupancy**: instruction *i* cannot dispatch until instruction
  *i − RUU* has committed;
* **LSQ occupancy**: memory op *m* cannot issue until memory op *m − LSQ*
  has committed;
* **memory latency** per access from the cache/TLB simulation, overlapped
  naturally by the window (independent instructions keep issuing while a
  miss is outstanding — this is where RUU/LSQ size buys MLP);
* **in-order commit** of ``width`` instructions/cycle.

The model is O(n) with small constants; it is the reference timing engine
the vectorized interval model is cross-validated against in the tests.

The per-instruction loop works on Python lists and floats, never on numpy
scalars, and its two choices that differ from a literal transcription are
both exact:

* each FU pool is a min-heap of next-free times, updated with
  :func:`heapq.heapreplace`. The units of a pool are interchangeable, so
  issuing on the earliest-free unit (the heap root) leaves the same
  multiset of free times as scanning for it, and every later issue time is
  the same;
* a memory op's LSQ ordinal is the number of earlier memory ops,
  ``len(mem_commit)``.

Every time is the same chain of float additions and maxima in the same
order, so cycles are bit-identical to the scan-based scoreboard.
``tests/simulator/test_pipeline.py`` compares the two on random machine
shapes and ``tests/simulator/test_detailed_pin.py`` pins whole runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.simulator.config import MicroarchConfig
from repro.simulator.interval import Latencies, DEFAULT_LATENCIES
from repro.simulator.isa import FU_CLASSES, OP_LATENCY, OpClass, Trace

__all__ = ["PipelineResult", "simulate_pipeline"]


@dataclass(frozen=True)
class PipelineResult:
    """Timing outcome of a detailed pipeline run."""

    cycles: float
    cpi: float
    n_instructions: int


def simulate_pipeline(
    trace: Trace,
    config: MicroarchConfig,
    mem_latency: np.ndarray,
    ifetch_latency: np.ndarray,
    mispredicted: np.ndarray,
    latencies: Latencies = DEFAULT_LATENCIES,
) -> PipelineResult:
    """Run the timing model.

    Parameters
    ----------
    trace:
        The dynamic instruction stream.
    mem_latency:
        Per-instruction additional data-access latency (0 for non-memory
        ops and L1 hits), from the cache/TLB simulation.
    ifetch_latency:
        Per-instruction fetch stall (0 for L1I hits).
    mispredicted:
        Per-instruction flag; True at branches whose prediction was wrong.
    """
    n = len(trace)
    if mem_latency.shape != (n,) or ifetch_latency.shape != (n,) or mispredicted.shape != (n,):
        raise ValueError("per-instruction arrays must match the trace length")
    if n == 0:
        return PipelineResult(0.0, 0.0, 0)

    width = config.width
    ruu = config.ruu_size
    lsq = config.lsq_size
    depth = (latencies.frontend_depth if width == 4 else latencies.frontend_depth_wide)

    ops = trace.op
    dep = trace.dep_dist

    base_lat = np.array([OP_LATENCY[OpClass(v)] for v in range(7)], dtype=np.float64)
    exec_lat = base_lat[ops] + mem_latency

    # Functional-unit pools: next-free time per unit (fully pipelined: a
    # unit accepts one new op per cycle), each a min-heap (module docstring).
    pools: dict[str, list[float]] = {
        "ialu": [0.0] * config.fu_ialu,
        "imult": [0.0] * config.fu_imult,
        "memport": [0.0] * config.fu_memport,
        "fpalu": [0.0] * config.fu_fpalu,
        "fpmult": [0.0] * config.fu_fpmult,
    }
    pool_of = [pools[FU_CLASSES[OpClass(v)]] for v in range(7)]
    heapreplace = heapq.heapreplace

    is_mem = (ops == int(OpClass.LOAD)) | (ops == int(OpClass.STORE))
    fetch_t = [0.0] * n
    complete_t = [0.0] * n
    commit_t = [0.0] * n
    mem_commit: list[float] = []  # commit time of each memory op, in order

    barrier = 0.0  # front-end redirect barrier from the last mispredict
    ct = -np.inf   # commit time of the previous instruction
    for i, (op, d, ex, ifl, mis, mem) in enumerate(zip(
            ops.tolist(), dep.tolist(), exec_lat.tolist(), ifetch_latency.tolist(),
            mispredicted.tolist(), is_mem.tolist())):
        # --- fetch: bandwidth, I-cache stall, redirect barrier, RUU space ---
        ft = barrier + ifl
        if i >= width:
            t = fetch_t[i - width] + 1.0
            if t > ft:
                ft = t
        if i >= ruu:
            t = commit_t[i - ruu]  # window slot frees at commit
            if t > ft:
                ft = t
        fetch_t[i] = ft

        # --- issue: dependencies, FU availability, LSQ space ----------------
        ready = ft + 1.0  # decode/rename takes a cycle
        if 0 < d <= i:
            t = complete_t[i - d]
            if t > ready:
                ready = t
        if mem:
            m = len(mem_commit)  # this op's memory ordinal
            if m >= lsq:
                t = mem_commit[m - lsq]
                if t > ready:
                    ready = t
        pool = pool_of[op]
        issue = pool[0]  # the earliest-free unit
        if ready > issue:
            issue = ready
        heapreplace(pool, issue + 1.0)  # pipelined: unit busy for one cycle

        done = issue + ex
        complete_t[i] = done

        # --- in-order commit at `width` per cycle ---------------------------
        if done > ct:
            ct = done
        if i >= width:
            t = commit_t[i - width] + 1.0
            if t > ct:
                ct = t
        commit_t[i] = ct
        if mem:
            mem_commit.append(ct)

        # --- mispredict: fetch resumes after resolution + redirect depth ----
        if mis:
            t = done + depth
            if t > barrier:
                barrier = t

    cycles = float(commit_t[-1])
    return PipelineResult(cycles=cycles, cpi=cycles / n, n_instructions=n)
