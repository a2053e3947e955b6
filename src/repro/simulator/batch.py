"""Vectorized (structure-of-arrays) evaluation of whole design-space blocks.

:func:`repro.simulator.interval.evaluate_config` is a handful of closed-form
miss-rate lookups plus ~40 scalar float operations — fast per call, but the
paper's headline workflow evaluates all 4608 Table-1 configurations per
application and per benchmark run, and the per-call Python overhead (dataclass
attribute access, dict churn, ``lru_cache`` keys) dominates the sweep.

This module evaluates a whole block of configurations at once:

* :func:`pack_design_space` transposes a config list into a
  :class:`ConfigBlock` — one numpy column per Table-1 parameter. The full
  Table-1 space is transposed once per process and shared read-only.
* :func:`evaluate_design_space_batch` computes every CPI component
  column-wise. The *leaf* quantities that involve transcendental functions or
  the analytic locality model (cache/TLB miss rates, MLP overlap, base CPI,
  branch mispredict rates, L2 latency) are computed **once per unique key
  row** by calling the exact same scalar functions the per-config path uses,
  then scattered back to columns. :func:`_gather` finds the unique rows by
  coding each row as one ``int64`` (per-column dense ranks combined
  row-major) and running a 1-D ``np.unique`` on that code, which yields
  the rows in lexicographic order without sorting whole rows.
  Everything downstream of the leaves is plain float64 arithmetic applied
  element-wise in the same operation order as the scalar code.

Because the leaves are *the same floats* the scalar path produces and the
combination arithmetic performs the identical IEEE-754 operation sequence per
element, the batched sweep is **bit-identical** to the scalar loop — the test
suite pins ``np.array_equal`` over the full 4608-point space for every
workload profile, and the perf harness re-checks it on every run. The scalar
path stays available as the cross-check oracle
(``sweep_design_space(..., method="scalar")``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from repro.simulator.analytic import PREDICTORS, mispredict_rate, tlb_miss_rate
from repro.simulator.config import _NUMERIC_FIELDS, MicroarchConfig, _table1_space
from repro.simulator.interval import (
    DEFAULT_LATENCIES,
    _base_cpi_from_cluster,
    _miss,
    _mlp_overlap_from_window,
)
from repro.simulator.workloads import MemoryBehavior, WorkloadProfile

__all__ = ["ConfigBlock", "BatchResult", "pack_design_space", "evaluate_design_space_batch"]

_PREDICTOR_INDEX = {name: i for i, name in enumerate(PREDICTORS)}
_numeric_row = operator.attrgetter(*_NUMERIC_FIELDS)

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ConfigBlock:
    """A design-space block stored column-wise (one array per parameter).

    ``predictor`` holds indices into :data:`repro.simulator.analytic.PREDICTORS`
    and ``issue_wrongpath`` is a boolean column; the 22 integer parameters are
    ``int64`` columns named exactly like the :class:`MicroarchConfig` fields.
    """

    l1d_size: np.ndarray
    l1d_line: np.ndarray
    l1d_assoc: np.ndarray
    l1i_size: np.ndarray
    l1i_line: np.ndarray
    l1i_assoc: np.ndarray
    l2_size: np.ndarray
    l2_line: np.ndarray
    l2_assoc: np.ndarray
    l3_size: np.ndarray
    l3_line: np.ndarray
    l3_assoc: np.ndarray
    width: np.ndarray
    ruu_size: np.ndarray
    lsq_size: np.ndarray
    itlb_size: np.ndarray
    dtlb_size: np.ndarray
    fu_ialu: np.ndarray
    fu_imult: np.ndarray
    fu_memport: np.ndarray
    fu_fpalu: np.ndarray
    fu_fpmult: np.ndarray
    predictor: np.ndarray
    issue_wrongpath: np.ndarray

    def __post_init__(self) -> None:
        n = self.n_configs
        for f in fields(self):
            arr = getattr(self, f.name)
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError(f"column {f.name!r} must be 1-D with {n} entries")

    @property
    def n_configs(self) -> int:
        return int(self.l1d_size.shape[0])

    def __len__(self) -> int:
        return self.n_configs

    def slice(self, start: int, stop: int) -> "ConfigBlock":
        """Contiguous row slice (zero-copy views of the columns)."""
        return ConfigBlock(**{
            f.name: getattr(self, f.name)[start:stop] for f in fields(self)
        })

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Column name -> array, e.g. for fingerprinting or shipping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def pack_design_space(configs: Sequence[MicroarchConfig]) -> ConfigBlock:
    """Transpose a config list into a column-wise :class:`ConfigBlock`.

    The full Table-1 space (the very configs :func:`enumerate_design_space`
    yields, in its order) is packed once per process; that shared block has
    read-only columns.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("cannot pack an empty design space")
    table1 = _table1_space()
    if len(configs) == len(table1) and all(map(operator.is_, configs, table1)):
        return _table1_block()
    return _transpose(configs)


@functools.lru_cache(maxsize=1)
def _table1_block() -> ConfigBlock:
    """The packed Table-1 space, shared by every caller (read-only columns)."""
    block = _transpose(_table1_space())
    for column in block.to_arrays().values():
        column.flags.writeable = False
    return block


def _transpose(configs: Sequence[MicroarchConfig]) -> ConfigBlock:
    """One ``attrgetter`` pass for the integer fields, one per other field."""
    n = len(configs)
    ints = np.fromiter(itertools.chain.from_iterable(map(_numeric_row, configs)),
                       dtype=np.int64, count=n * len(_NUMERIC_FIELDS))
    ints = ints.reshape(n, len(_NUMERIC_FIELDS))
    # One owning array per column, so a block slice is a view of its column.
    cols = {name: ints[:, j].copy() for j, name in enumerate(_NUMERIC_FIELDS)}
    cols["predictor"] = np.fromiter(
        (_PREDICTOR_INDEX[c.branch_predictor] for c in configs), dtype=np.int64, count=n)
    cols["issue_wrongpath"] = np.fromiter(
        (c.issue_wrongpath for c in configs), dtype=bool, count=n)
    return ConfigBlock(**cols)


@dataclass(frozen=True)
class BatchResult:
    """Column-wise CPI breakdown mirroring :class:`IntervalResult`."""

    cycles: np.ndarray
    cpi: np.ndarray
    base_cpi: np.ndarray
    icache_cpi: np.ndarray
    dcache_cpi: np.ndarray
    branch_cpi: np.ndarray
    tlb_cpi: np.ndarray
    l1d_miss_rate: np.ndarray
    l1i_miss_rate: np.ndarray
    l2_global_miss_rate: np.ndarray
    l3_global_miss_rate: np.ndarray
    branch_mispredict_rate: np.ndarray
    n_instructions: int


def _gather(keys: np.ndarray, compute: Callable[[tuple[int, ...]], float]) -> np.ndarray:
    """Evaluate ``compute`` once per unique key row and scatter to a column.

    ``keys`` is (n, k) int64; ``compute`` receives each unique row as a tuple
    of Python ints — so calls hit the same ``lru_cache`` memo the scalar path
    uses and produce the exact same floats. Rows are visited in the
    lexicographic order ``np.unique(keys, axis=0)`` would give.

    Each row becomes one ``int64`` code: the dense, order-preserving rank of
    every column value, combined row-major. When the product of the column
    cardinalities would overflow, the partial code is first re-ranked to
    its distinct values (fewer than ``n``), which preserves its order.
    """
    code = np.zeros(keys.shape[0], dtype=np.int64)
    n_codes = 1
    for column in keys.T:
        levels, rank = np.unique(column, return_inverse=True)
        if n_codes * len(levels) > _INT64_MAX:
            distinct, code = np.unique(code, return_inverse=True)
            n_codes = len(distinct)
        code = code * len(levels) + rank
        n_codes *= len(levels)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    vals = np.fromiter((compute(tuple(row)) for row in keys[first].tolist()),
                       dtype=np.float64, count=first.shape[0])
    return vals[inverse]


def _miss_column(mem: MemoryBehavior, size: np.ndarray, line: np.ndarray,
                 assoc: np.ndarray) -> np.ndarray:
    """Per-config miss rate of one stream in one cache level."""
    keys = np.stack([size, line, assoc], axis=1)
    # An absent L3 is encoded as (0, 0, 0); miss_rate(size=0) is defined as
    # 1.0 and the caller masks those rows out with np.where(has_l3, ...).
    return _gather(keys, lambda k: 1.0 if k[0] == 0 else _miss(mem, k[0], k[1], k[2]))


def evaluate_design_space_batch(
    configs: Sequence[MicroarchConfig] | ConfigBlock,
    profile: WorkloadProfile,
    n_instructions: int = 100_000_000,
    components: bool = False,
) -> np.ndarray | BatchResult:
    """Evaluate a whole design-space block with vectorized numpy kernels.

    Returns the cycle counts (the :func:`sweep_design_space` contract), or the
    full :class:`BatchResult` CPI breakdown with ``components=True``. Results
    are bit-identical to calling :func:`evaluate_config` per row — see the
    module docstring for why.
    """
    if n_instructions <= 0:
        raise ValueError(f"n_instructions must be positive, got {n_instructions}")
    block = configs if isinstance(configs, ConfigBlock) else pack_design_space(configs)
    lat = DEFAULT_LATENCIES
    has_l3 = block.l3_size > 0
    l2_lat = _gather(block.l2_size[:, None], lambda k: lat.l2_latency(k[0]))

    # --- instruction stream -------------------------------------------------
    mi_l1 = _miss_column(profile.inst, block.l1i_size, block.l1i_line, block.l1i_assoc)
    mi_l2 = np.minimum(
        _miss_column(profile.inst, block.l2_size, block.l2_line, block.l2_assoc), mi_l1)
    mi_l3 = np.where(
        has_l3,
        np.minimum(
            _miss_column(profile.inst, block.l3_size, block.l3_line, block.l3_assoc),
            mi_l2),
        mi_l2)
    icache_cpi = (
        (mi_l1 - mi_l2) * l2_lat
        + (mi_l2 - mi_l3) * lat.l3
        + mi_l3 * lat.memory
    )

    # --- data stream ----------------------------------------------------------
    wrongpath_pollution = np.where(block.issue_wrongpath, 1.02, 1.0)
    md_l1 = np.minimum(
        1.0,
        _miss_column(profile.data, block.l1d_size, block.l1d_line, block.l1d_assoc)
        * wrongpath_pollution)
    md_l2 = np.minimum(
        _miss_column(profile.data, block.l2_size, block.l2_line, block.l2_assoc), md_l1)
    md_l3 = np.where(
        has_l3,
        np.minimum(
            _miss_column(profile.data, block.l3_size, block.l3_line, block.l3_assoc),
            md_l2),
        md_l2)
    window = np.minimum(block.ruu_size, 2 * block.lsq_size)
    overlap = _gather(window[:, None],
                      lambda k: _mlp_overlap_from_window(profile, k[0]))
    short_overlap = 1.0 + (overlap - 1.0) * 0.5  # L2 hits overlap less fully
    mem_refs = profile.mix_fraction("load") + 0.3 * profile.mix_fraction("store")
    dcache_cpi = mem_refs * (
        (md_l1 - md_l2) * l2_lat / short_overlap
        + (md_l2 - md_l3) * lat.l3 / overlap
        + md_l3 * lat.memory / overlap
    )

    # --- branches ----------------------------------------------------------
    mr = _gather(block.predictor[:, None],
                 lambda k: mispredict_rate(profile.branches, PREDICTORS[k[0]]))
    depth = np.where(block.width == 4, lat.frontend_depth, lat.frontend_depth_wide)
    refill = block.ruu_size / (2.0 * block.width)
    penalty = depth + refill
    # wrong-path execution warms the caches slightly
    penalty = np.where(block.issue_wrongpath, penalty * 0.97, penalty)
    branch_cpi = profile.mix_fraction("branch") * mr * penalty

    # --- TLBs ----------------------------------------------------------------
    itlb_miss = _gather(block.itlb_size[:, None],
                        lambda k: tlb_miss_rate(profile.inst, k[0]))
    dtlb_miss = _gather(block.dtlb_size[:, None],
                        lambda k: tlb_miss_rate(profile.data, k[0]))
    tlb_cpi = (
        itlb_miss * lat.tlb_walk
        + mem_refs * dtlb_miss * lat.tlb_walk
    )

    # --- base CPI (one scalar evaluation per unique width cluster) ----------
    cluster = np.stack([block.width, block.ruu_size, block.fu_ialu, block.fu_imult,
                        block.fu_memport, block.fu_fpalu, block.fu_fpmult], axis=1)
    base = _gather(cluster,
                   lambda k: _base_cpi_from_cluster(profile, k[0], k[1], k[2:]))

    cpi = base + icache_cpi + dcache_cpi + branch_cpi + tlb_cpi
    cycles = cpi * n_instructions
    if not components:
        return cycles
    return BatchResult(
        cycles=cycles,
        cpi=cpi,
        base_cpi=base,
        icache_cpi=icache_cpi,
        dcache_cpi=dcache_cpi,
        branch_cpi=branch_cpi,
        tlb_cpi=tlb_cpi,
        l1d_miss_rate=md_l1,
        l1i_miss_rate=mi_l1,
        l2_global_miss_rate=np.maximum(md_l2, 0.0),
        l3_global_miss_rate=np.maximum(np.where(has_l3, md_l3, md_l2), 0.0),
        branch_mispredict_rate=mr,
        n_instructions=n_instructions,
    )
