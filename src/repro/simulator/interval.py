"""Interval-analysis CPI model — the design-space-sweep fast path.

Following the interval / mechanistic modeling tradition (Karkhanis & Smith;
Eyerman et al., the paper's ref [9]), total CPI decomposes into a base
component set by machine width, window-limited ILP and functional-unit
contention, plus miss-event penalty components:

    CPI = CPI_base + CPI_icache + CPI_dcache + CPI_branch + CPI_tlb

Each penalty component is (events/instruction) × (effective penalty), with
miss rates evaluated in closed form from the workload's locality model
(:mod:`repro.simulator.analytic`) and long-latency penalties divided by the
window's achievable memory-level parallelism.

This model exercises **every** Table-1 parameter:

====================  =====================================================
Parameter             Effect
====================  =====================================================
L1I/L1D size/line     instruction/data miss rates (reuse + spatial model)
L1 associativity      set-conflict correction (constant 4-way in Table 1)
L2 size/line/assoc    global L2 miss rates and L2 hit latency (bigger = slower)
L3 present            adds a 36-cycle tier that filters memory accesses
Branch predictor      per-class misprediction rate × pipeline refill penalty
Width cluster         base CPI, FU contention limits, refill width
RUU size              window-limited ILP and memory-level parallelism
LSQ size              caps the outstanding-miss window for MLP
I/D TLB reach         page-walk penalty components
issue wrong-path      ±: wrong-path pollution of the L1D vs. prefetch effect
====================  =====================================================

A single evaluation is a handful of closed-form miss-rate computations
(memoized per unique geometry), so sweeping the full 4608-point space takes
milliseconds — that is what makes "simulate 1%, predict 100%" experiments
convenient to *verify against the whole space*, which the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.obs import phase as _obs_phase
from repro.simulator.analytic import mispredict_rate, miss_rate, tlb_miss_rate
from repro.simulator.config import KB, MicroarchConfig
from repro.simulator.workloads import MemoryBehavior, WorkloadProfile

__all__ = ["Latencies", "IntervalResult", "evaluate_config", "sweep_design_space"]


@dataclass(frozen=True)
class Latencies:
    """Memory-hierarchy and pipeline latency parameters (cycles)."""

    l2_base: float = 9.0          # L2 hit latency at 256 KB ...
    l2_per_doubling: float = 1.0  # ... plus this per capacity doubling
    l3: float = 36.0
    memory: float = 250.0
    tlb_walk: float = 30.0
    frontend_depth: float = 7.0   # mispredict redirect depth at width 4
    frontend_depth_wide: float = 9.0  # deeper front-end of the 8-wide cluster

    def l2_latency(self, l2_size: int) -> float:
        """Larger L2s have longer access latency."""
        doublings = math.log2(max(l2_size, 256 * KB) / (256 * KB))
        return self.l2_base + self.l2_per_doubling * doublings


DEFAULT_LATENCIES = Latencies()


@dataclass(frozen=True)
class IntervalResult:
    """CPI breakdown and headline cycle count for one configuration."""

    cycles: float
    cpi: float
    base_cpi: float
    icache_cpi: float
    dcache_cpi: float
    branch_cpi: float
    tlb_cpi: float
    l1d_miss_rate: float
    l1i_miss_rate: float
    l2_global_miss_rate: float
    l3_global_miss_rate: float
    branch_mispredict_rate: float
    n_instructions: int


@lru_cache(maxsize=4096)
def _miss(mem: MemoryBehavior, size: int, line: int, assoc: int) -> float:
    """Memoized miss-rate evaluation (few dozen unique geometries/sweep)."""
    return miss_rate(mem, size, line, assoc)


def _mlp_overlap_from_window(profile: WorkloadProfile, window: int) -> float:
    """Long-latency miss overlap for an effective window of ``window`` entries."""
    ilp = profile.ilp
    return 1.0 + (ilp.mlp_inf - 1.0) * (1.0 - math.exp(-window / ilp.mlp_tau))


def _mlp_overlap(profile: WorkloadProfile, config: MicroarchConfig) -> float:
    """Achievable long-latency miss overlap given RUU and LSQ sizes."""
    return _mlp_overlap_from_window(profile, min(config.ruu_size, 2 * config.lsq_size))


def _base_cpi_from_cluster(
    profile: WorkloadProfile,
    width: int,
    ruu_size: int,
    fu_counts: tuple[int, int, int, int, int],
) -> float:
    """Width-, window- and FU-limited steady-state CPI for one width cluster.

    ``fu_counts`` is (ialu, imult, memport, fpalu, fpmult). Shared by the
    scalar path and the batched kernel (which calls it once per unique
    cluster), so both produce the exact same floats.
    """
    ilp = profile.ilp
    window_ipc = ilp.ilp_inf * (1.0 - math.exp(-ruu_size / ilp.window_tau))
    # Functional-unit throughput limits: class fraction f served by n units
    # caps sustainable IPC at n / f.
    fu_limits = []
    class_fractions = {
        "ialu": profile.ialu_fraction + profile.mix_fraction("branch"),
        "imult": profile.mix_fraction("imult"),
        "memport": profile.mix_fraction("load") + profile.mix_fraction("store"),
        "fpalu": profile.mix_fraction("fpalu"),
        "fpmult": profile.mix_fraction("fpmult"),
    }
    counts = dict(zip(("ialu", "imult", "memport", "fpalu", "fpmult"), fu_counts))
    for pool, frac in class_fractions.items():
        if frac > 0.0:
            fu_limits.append(counts[pool] / frac)
    ipc = min(float(width), window_ipc, *fu_limits)
    return 1.0 / max(ipc, 1e-6)


def _base_cpi(profile: WorkloadProfile, config: MicroarchConfig) -> float:
    """Width-, window- and FU-limited steady-state CPI."""
    return _base_cpi_from_cluster(
        profile, config.width, config.ruu_size,
        (config.fu_ialu, config.fu_imult, config.fu_memport,
         config.fu_fpalu, config.fu_fpmult),
    )


def evaluate_config(
    config: MicroarchConfig,
    profile: WorkloadProfile,
    n_instructions: int = 100_000_000,
) -> IntervalResult:
    """Evaluate one design point: cycles to run ``n_instructions``."""
    if n_instructions <= 0:
        raise ValueError(f"n_instructions must be positive, got {n_instructions}")
    lat = DEFAULT_LATENCIES
    l2_lat = lat.l2_latency(config.l2_size)

    # --- instruction stream -------------------------------------------------
    mi_l1 = _miss(profile.inst, config.l1i_size, config.l1i_line, config.l1i_assoc)
    mi_l2 = min(_miss(profile.inst, config.l2_size, config.l2_line, config.l2_assoc), mi_l1)
    if config.has_l3:
        mi_l3 = min(_miss(profile.inst, config.l3_size, config.l3_line, config.l3_assoc), mi_l2)
    else:
        mi_l3 = mi_l2
    icache_cpi = (
        (mi_l1 - mi_l2) * l2_lat
        + (mi_l2 - mi_l3) * lat.l3
        + mi_l3 * lat.memory
    )

    # --- data stream ----------------------------------------------------------
    wrongpath_pollution = 1.02 if config.issue_wrongpath else 1.0
    md_l1 = min(1.0, _miss(profile.data, config.l1d_size, config.l1d_line,
                           config.l1d_assoc) * wrongpath_pollution)
    md_l2 = min(_miss(profile.data, config.l2_size, config.l2_line, config.l2_assoc), md_l1)
    if config.has_l3:
        md_l3 = min(_miss(profile.data, config.l3_size, config.l3_line, config.l3_assoc), md_l2)
    else:
        md_l3 = md_l2
    overlap = _mlp_overlap(profile, config)
    short_overlap = 1.0 + (overlap - 1.0) * 0.5  # L2 hits overlap less fully
    mem_refs = profile.mix_fraction("load") + 0.3 * profile.mix_fraction("store")
    dcache_cpi = mem_refs * (
        (md_l1 - md_l2) * l2_lat / short_overlap
        + (md_l2 - md_l3) * lat.l3 / overlap
        + md_l3 * lat.memory / overlap
    )

    # --- branches ----------------------------------------------------------
    mr = mispredict_rate(profile.branches, config.branch_predictor)
    depth = lat.frontend_depth if config.width == 4 else lat.frontend_depth_wide
    refill = config.ruu_size / (2.0 * config.width)
    penalty = depth + refill
    if config.issue_wrongpath:
        penalty *= 0.97  # wrong-path execution warms the caches slightly
    branch_cpi = profile.mix_fraction("branch") * mr * penalty

    # --- TLBs ----------------------------------------------------------------
    itlb_miss = tlb_miss_rate(profile.inst, config.itlb_size)
    dtlb_miss = tlb_miss_rate(profile.data, config.dtlb_size)
    tlb_cpi = (
        itlb_miss * lat.tlb_walk
        + mem_refs * dtlb_miss * lat.tlb_walk
    )

    base = _base_cpi(profile, config)
    cpi = base + icache_cpi + dcache_cpi + branch_cpi + tlb_cpi
    return IntervalResult(
        cycles=cpi * n_instructions,
        cpi=cpi,
        base_cpi=base,
        icache_cpi=icache_cpi,
        dcache_cpi=dcache_cpi,
        branch_cpi=branch_cpi,
        tlb_cpi=tlb_cpi,
        l1d_miss_rate=md_l1,
        l1i_miss_rate=mi_l1,
        l2_global_miss_rate=max(md_l2, 0.0),
        l3_global_miss_rate=max(md_l3 if config.has_l3 else md_l2, 0.0),
        branch_mispredict_rate=mr,
        n_instructions=n_instructions,
    )


def _eval_cycles(args: tuple[MicroarchConfig, WorkloadProfile, int]) -> float:
    config, profile, n_instructions = args
    return evaluate_config(config, profile, n_instructions).cycles


def _eval_block_slice(args: tuple) -> list[float]:
    """One batched sweep task: evaluate rows [start, stop) of a shipped block.

    The design space travels once per worker via a shared-memory payload
    handle (see :mod:`repro.parallel.shm`); the task tuple itself is a few
    dozen bytes. Module-level so it can cross process borders.
    """
    from repro.parallel.shm import attach_payload
    from repro.simulator.batch import evaluate_design_space_batch

    handle, start, stop = args
    block, profile, n_instructions = attach_payload(handle)
    cycles = evaluate_design_space_batch(
        block.slice(start, stop), profile, n_instructions)
    return cycles.tolist()


#: Configurations per executor task. The slice bounds are a function of
#: ``len(configs)`` alone, so a sweep's task list — and with it every
#: checkpoint fingerprint and seeded fault index — is the same on any host.
#: Slices buy resume and fault granularity, not speed: the batch kernel
#: sweeps all 4608 configs in ~5 ms on a 2-core x86 host (~9 ms with the
#: miss-rate memo cleared), and each slice task adds ~1.2 ms, so 512
#: (9 tasks, ~16 ms) keeps the full space at a handful of journal lines
#: while costing little next to process startup.
SWEEP_SLICE = 512


def _batched_executor_sweep(configs, profile, n_instructions, executor) -> np.ndarray:
    """Fan a batched sweep out over an executor, shipping the space once.

    The payload goes through shared memory on every backend, serial too:
    a task's fingerprint hashes its payload handle, so a journal written
    by a pool run restores in a serial resume and vice versa.
    """
    from repro.parallel.partition import chunk_bounds
    from repro.parallel.shm import SharedPayload
    from repro.simulator.batch import ConfigBlock, pack_design_space

    block = configs if isinstance(configs, ConfigBlock) else pack_design_space(configs)
    n_slices = -(-len(configs) // SWEEP_SLICE)
    with SharedPayload((block, profile, n_instructions)) as shipped:
        tasks = [(shipped.handle, start, stop)
                 for start, stop in chunk_bounds(len(configs), n_slices)]
        parts = executor.map(_eval_block_slice, tasks)
    return np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])


def sweep_design_space(
    configs: Sequence[MicroarchConfig],
    profile: WorkloadProfile,
    n_instructions: int = 100_000_000,
    executor=None,
    method: str = "batch",
    cache=None,
) -> np.ndarray:
    """Cycle counts for every configuration.

    ``method`` selects the evaluation kernel — both return bit-identical
    cycles (the test suite pins this over the full space):

    * ``"batch"`` (default) — vectorized structure-of-arrays evaluation
      (:func:`repro.simulator.batch.evaluate_design_space_batch`). With an
      ``executor``, the packed design space ships to workers once via
      shared memory and each task evaluates a contiguous slice of
      :data:`SWEEP_SLICE` configurations.
    * ``"scalar"`` — the serial per-config loop, kept as the cross-check
      oracle. It takes no executor.

    ``cache`` enables content-addressed result caching: pass ``True`` for the
    process-wide default :func:`repro.cache.default_cache`, or a
    :class:`repro.cache.ResultCache`. Cached sweeps are keyed by the design
    space, profile, instruction count, and simulator code version, so any
    code or input change recomputes.
    """
    if method not in ("batch", "scalar"):
        raise ValueError(f"method must be batch|scalar, got {method!r}")
    if method == "scalar" and executor is not None:
        raise ValueError("method='scalar' is the serial oracle and takes no executor")
    configs = list(configs)
    if not configs:
        return np.array([], dtype=np.float64)
    # A cached sweep swaps in its packed block, which keys the cache and
    # feeds the batch kernel: the space is packed once.
    space = configs

    def compute() -> np.ndarray:
        span.set(method=method)
        if method == "scalar":
            return np.array([evaluate_config(c, profile, n_instructions).cycles
                             for c in configs])
        if executor is not None:
            return _batched_executor_sweep(space, profile, n_instructions, executor)
        from repro.simulator.batch import evaluate_design_space_batch

        return evaluate_design_space_batch(space, profile, n_instructions)

    with _obs_phase("sweep", app=profile.name, n_configs=len(configs)) as span:
        if cache is None or cache is False:
            return compute()
        from repro.cache import default_cache
        from repro.cache.fingerprint import code_version
        from repro.simulator.batch import pack_design_space

        store = default_cache() if cache is True else cache
        space = pack_design_space(configs)
        key = ("sweep-cycles", code_version(), space.to_arrays(),
               profile, float(n_instructions))
        events_before = len(store.events)
        cycles = np.array(store.get_or_compute(key, compute, kind="sweep-cycles"),
                          dtype=np.float64)
        fresh = store.events[events_before:]
        if fresh:
            span.set(cache="hit" if fresh[0].startswith("hit") else "miss")
        return cycles
