"""The complete simulated machine: caches + TLBs + predictor + pipeline.

``simulate_detailed`` is the full reference path (concrete trace through
table-based hardware models into the scoreboard pipeline). The
design-space sweeps use the closed-form interval fast path,
:func:`repro.simulator.interval.evaluate_config`; tests cross-validate the
two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulator.branch import make_predictor, simulate_predictor
from repro.simulator.cache import Cache, MultiLevelCache
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


def simulate_detailed(trace: Trace, config: MicroarchConfig) -> SimulationResult:
    """Run the full detailed model on a concrete trace."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot simulate an empty trace")
    lat = DEFAULT_LATENCIES
    l2_lat = lat.l2_latency(config.l2_size)

    # Shared L2/L3: both streams traverse the same level-2/3 state. The
    # instruction stream is filtered first (fetch happens ahead of data
    # access in the pipeline), an adequate ordering approximation.
    l2 = Cache(config.l2_size, config.l2_line, config.l2_assoc)
    l3 = Cache(config.l3_size, config.l3_line, config.l3_assoc) if config.has_l3 else None

    # Instruction side.
    l1i = Cache(config.l1i_size, config.l1i_line, config.l1i_assoc)
    ihier = MultiLevelCache(l1i, l2, l3, l2_lat, lat.l3, lat.memory)
    ifetch_latency = ihier.access_stream(trace.pc)
    itlb = Tlb(config.itlb_size)
    itlb_hits = itlb.access_stream(trace.pc)
    ifetch_latency = ifetch_latency + (~itlb_hits) * lat.tlb_walk

    # Data side.
    mem_mask = trace.memory_mask
    mem_latency = np.zeros(n, dtype=np.float64)
    dtlb_rate = 0.0
    if mem_mask.any():
        l1d = Cache(config.l1d_size, config.l1d_line, config.l1d_assoc)
        dhier = MultiLevelCache(l1d, l2, l3, l2_lat, lat.l3, lat.memory)
        data_addrs = trace.addr[mem_mask]
        dlat = dhier.access_stream(data_addrs)
        dtlb = Tlb(config.dtlb_size)
        dtlb_hits = dtlb.access_stream(data_addrs)
        dlat = dlat + (~dtlb_hits) * lat.tlb_walk
        mem_latency[mem_mask] = dlat
        l1d_rate = l1d.stats.miss_rate
        dtlb_rate = dtlb.stats.miss_rate
    else:
        l1d_rate = 0.0

    # Branch prediction.
    br_mask = trace.branch_mask
    mispredicted = np.zeros(n, dtype=bool)
    if br_mask.any():
        predictor = make_predictor(config.branch_predictor)
        miss = simulate_predictor(predictor, trace.pc[br_mask], trace.taken[br_mask])
        mispredicted[br_mask] = miss
        br_rate = float(miss.mean())
    else:
        br_rate = 0.0

    result = simulate_pipeline(
        trace, config, mem_latency, ifetch_latency, mispredicted
    )
    return SimulationResult(
        cycles=result.cycles,
        cpi=result.cpi,
        n_instructions=n,
        l1d_miss_rate=l1d_rate,
        l1i_miss_rate=l1i.stats.miss_rate,
        branch_mispredict_rate=br_rate,
        dtlb_miss_rate=dtlb_rate,
        mode="detailed",
    )

