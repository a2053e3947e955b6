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
scalars, and its choices that differ from a literal transcription are
all exact:

* each FU pool is a min-heap of next-free times, updated with
  :func:`heapq.heapreplace`. The units of a pool are interchangeable, so
  issuing on the earliest-free unit (the heap root) leaves the same
  multiset of free times as scanning for it, and every later issue time is
  the same;
* the times that later instructions read live in lists that grow in
  program order: decode-ready (fetch + 1), completion, commit and
  memory-op commit. All but completion start with ``-inf`` sentinels
  (``width``, ``max(width, RUU)`` and ``LSQ`` of them), so the reads of
  instruction *i − width*, *i − RUU* and memory op *m − LSQ* are at
  non-negative indices that need no bounds check: ``i``, ``i + max(width,
  RUU) − RUU``, ``i + max(width, RUU) − width`` and ``m``. Where the
  literal model has no such instruction it skips the term; the loop reads
  a sentinel instead, and ``-inf`` (plus one) never wins a maximum. A
  dependence distance that reaches before the trace start is mapped to 0
  (none) in numpy before the loop, so ``complete_t[i − d]`` needs no
  check either. CPython specialises list indexing for non-negative ints,
  which is why the reads count up from the front instead of back from
  the end.

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
from repro.simulator.interval import DEFAULT_LATENCIES
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
    depth = (DEFAULT_LATENCIES.frontend_depth if width == 4
             else DEFAULT_LATENCIES.frontend_depth_wide)

    ops = trace.op

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
    # A dependence reaching before the trace start is no dependence. Only
    # the first max(dep) instructions can have one.
    dep = trace.dep_dist.copy()
    head = dep[:min(n, int(dep.max()))]
    head[head > np.arange(head.shape[0])] = 0
    # Times so far in program order, behind -inf sentinels (module
    # docstring). ready_t holds fetch + 1.0, the decode-ready time, which
    # is also what the fetch-bandwidth bound adds to fetch_t[i - width].
    inf = float("inf")
    window = max(width, ruu)
    ready_t = [-inf] * width      # ready_t[i]: instruction i - width
    commit_t = [-inf] * window    # commit_t[i + window - k]: i - k
    mem_commit = [-inf] * lsq     # mem_commit[m]: memory op m - lsq
    complete_t: list[float] = []  # complete_t[i - d]: the producer
    at_ruu = window - ruu
    at_width = window - width

    barrier = 0.0  # front-end redirect barrier from the last mispredict
    ct = -inf      # commit time of the previous instruction
    i = 0          # this instruction's index
    m = 0          # this op's memory ordinal, if it is one
    for op, d, ex, ifl, mis, mem in zip(
            ops.tolist(), dep.tolist(), exec_lat.tolist(), ifetch_latency.tolist(),
            mispredicted.tolist(), is_mem.tolist()):
        # --- fetch: bandwidth, I-cache stall, redirect barrier, RUU space ---
        ft = barrier + ifl
        t = ready_t[i]  # fetch_t[i - width] + 1.0
        if t > ft:
            ft = t
        t = commit_t[i + at_ruu]  # window slot frees at commit
        if t > ft:
            ft = t

        # --- issue: dependencies, FU availability, LSQ space ----------------
        ready = ft + 1.0  # decode/rename takes a cycle
        ready_t.append(ready)
        if d:
            t = complete_t[i - d]
            if t > ready:
                ready = t
        if mem:
            t = mem_commit[m]
            if t > ready:
                ready = t
        pool = pool_of[op]
        issue = pool[0]  # the earliest-free unit
        if ready > issue:
            issue = ready
        heapreplace(pool, issue + 1.0)  # pipelined: unit busy for one cycle

        done = issue + ex
        complete_t.append(done)

        # --- in-order commit at `width` per cycle ---------------------------
        if done > ct:
            ct = done
        t = commit_t[i + at_width] + 1.0
        if t > ct:
            ct = t
        commit_t.append(ct)
        if mem:
            mem_commit.append(ct)
            m += 1

        # --- mispredict: fetch resumes after resolution + redirect depth ----
        if mis:
            t = done + depth
            if t > barrier:
                barrier = t
        i += 1

    cycles = float(commit_t[-1])
    return PipelineResult(cycles=cycles, cpi=cycles / n, n_instructions=n)
