"""The complete simulated machine: caches + TLBs + predictor + pipeline.

``simulate_detailed`` is the full reference path (concrete trace through
table-based hardware models into the scoreboard pipeline). The
design-space sweeps use the closed-form interval fast path,
:func:`repro.simulator.interval.evaluate_config`; tests cross-validate the
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.simulator.branch import make_predictor, simulate_predictor
from repro.simulator.cache import Cache, miss_latency
from repro.simulator.config import MicroarchConfig
from repro.simulator.interval import DEFAULT_LATENCIES
from repro.simulator.isa import Trace
from repro.simulator.pipeline import simulate_pipeline
from repro.simulator.tlb import Tlb

__all__ = ["SimulationResult", "simulate_detailed"]


@dataclass(frozen=True)
class SimulationResult:
    """Headline outcome plus the detailed model's diagnostic rates."""

    cycles: float
    cpi: float
    n_instructions: int
    l1d_miss_rate: float
    l1i_miss_rate: float
    branch_mispredict_rate: float
    dtlb_miss_rate: float
    mode: str  # "detailed"


def _outcome(trace: Trace, key: tuple, compute: Callable[[], Any]) -> Any:
    """``compute()`` once per (trace, component key); later calls reuse it."""
    memo = trace._outcomes
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _l1_misses(addrs: np.ndarray, size: int, line: int, assoc: int) -> tuple[np.ndarray, float]:
    """A cold L1 over one stream: the positions that miss, and the miss rate."""
    l1 = Cache(size, line, assoc)
    return np.flatnonzero(~l1.access_stream(addrs)), l1.stats.miss_rate


def _tlb_hits(addrs: np.ndarray, reach: int) -> tuple[np.ndarray, float]:
    """A cold TLB over one stream: hit flags and the miss rate."""
    tlb = Tlb(reach)
    return tlb.access_stream(addrs), tlb.stats.miss_rate


def simulate_detailed(trace: Trace, config: MicroarchConfig) -> SimulationResult:
    """Run the full detailed model on a concrete trace.

    Each private component's outcome (L1I, ITLB, L1D, DTLB, predictor)
    depends only on the trace and that component's own parameters, so it
    is computed the first time a trace meets those parameters and kept on
    the trace (``Trace._outcomes``). Only the shared L2/L3 and the pipeline
    run per config.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("cannot simulate an empty trace")
    lat = DEFAULT_LATENCIES
    l2_lat = lat.l2_latency(config.l2_size)

    # Shared L2/L3: both L1 miss streams traverse the same level-2/3 state.
    # The instruction stream goes first (fetch happens ahead of data
    # access in the pipeline), an adequate ordering approximation.
    l2 = Cache(config.l2_size, config.l2_line, config.l2_assoc)
    l3 = Cache(config.l3_size, config.l3_line, config.l3_assoc) if config.has_l3 else None

    # Instruction side.
    l1i = (config.l1i_size, config.l1i_line, config.l1i_assoc)
    i_miss, l1i_rate = _outcome(trace, ("l1i", *l1i), lambda: _l1_misses(trace.pc, *l1i))
    ifetch_latency = miss_latency(trace.pc, i_miss, l2, l3, l2_lat, lat.l3, lat.memory)
    itlb_hits, _ = _outcome(trace, ("itlb", config.itlb_size),
                            lambda: _tlb_hits(trace.pc, config.itlb_size))
    ifetch_latency = ifetch_latency + (~itlb_hits) * lat.tlb_walk

    # Data side.
    mem_mask = trace.memory_mask
    mem_latency = np.zeros(n, dtype=np.float64)
    l1d_rate = dtlb_rate = 0.0
    if mem_mask.any():
        data_addrs = trace.addr[mem_mask]
        l1d = (config.l1d_size, config.l1d_line, config.l1d_assoc)
        d_miss, l1d_rate = _outcome(trace, ("l1d", *l1d),
                                    lambda: _l1_misses(data_addrs, *l1d))
        dlat = miss_latency(data_addrs, d_miss, l2, l3, l2_lat, lat.l3, lat.memory)
        dtlb_hits, dtlb_rate = _outcome(trace, ("dtlb", config.dtlb_size),
                                        lambda: _tlb_hits(data_addrs, config.dtlb_size))
        dlat = dlat + (~dtlb_hits) * lat.tlb_walk
        mem_latency[mem_mask] = dlat

    # Branch prediction.
    br_mask = trace.branch_mask
    mispredicted = np.zeros(n, dtype=bool)
    br_rate = 0.0
    if br_mask.any():
        name = config.branch_predictor
        miss = _outcome(trace, ("predictor", name), lambda: simulate_predictor(
            make_predictor(name), trace.pc[br_mask], trace.taken[br_mask]))
        mispredicted[br_mask] = miss
        br_rate = float(miss.mean())

    result = simulate_pipeline(
        trace, config, mem_latency, ifetch_latency, mispredicted
    )
    return SimulationResult(
        cycles=result.cycles,
        cpi=result.cpi,
        n_instructions=n,
        l1d_miss_rate=l1d_rate,
        l1i_miss_rate=l1i_rate,
        branch_mispredict_rate=br_rate,
        dtlb_miss_rate=dtlb_rate,
        mode="detailed",
    )
