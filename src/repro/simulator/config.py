"""The microprocessor design space of Table 1 (4608 configurations).

Table 1 of the paper lists 24 parameters with their value sets and states
the space "corresponds to 4608 different configurations per benchmark".
The raw cartesian product of the listed value sets is far larger than
4608, so — as in SimpleScalar studies of this era — several parameter
groups vary *together*:

* the L1 instruction and data caches share one **line size** (32/64 B);
* the **L3 cache** is either absent (size/line/assoc = 0) or present with
  the 8 MB / 256 B / 8-way geometry — its three rows move together;
* the **machine width cluster**: decode/issue/commit width, RUU size, LSQ
  size and the functional-unit five-tuple scale together (4-wide machine:
  RUU 128, LSQ 64, FUs 4/2/2/4/2; 8-wide: RUU 256, LSQ 128, FUs 8/4/4/8/4);
* the two **TLBs** scale together (small: 256 KB I / 512 KB D reach;
  large: 1024 KB I / 2048 KB D).

Free axes: L1D size (3) × L1I size (3) × L1 line (2) × L2 size (2) ×
L2 assoc (2) × L3 present (2) × branch predictor (4) × width cluster (2) ×
issue-wrongpath (2) × TLB (2) = **4608**. ✓

Every record still exposes all 24 Table-1 parameters as model inputs; the
tied and constant ones are then handled exactly as the paper describes
(§3.4): Clementine-style preparation drops fields with no variation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ml.dataset import Column, ColumnRole, Dataset

__all__ = ["MicroarchConfig", "enumerate_design_space", "design_space_dataset", "DESIGN_SPACE_SIZE"]

KB = 1024
MB = 1024 * KB

#: Expected number of configurations (paper §4.1).
DESIGN_SPACE_SIZE = 4608


@dataclass(frozen=True)
class MicroarchConfig:
    """One point of the Table-1 design space (all 24 parameters explicit).

    Cache sizes are in bytes, line sizes in bytes; TLB sizes are mapped
    reach in bytes (Table 1 gives them in KB). A zero L3 size means no L3;
    its line and associativity are then zero as in the paper's table.
    """

    l1d_size: int
    l1d_line: int
    l1d_assoc: int
    l1i_size: int
    l1i_line: int
    l1i_assoc: int
    l2_size: int
    l2_line: int
    l2_assoc: int
    l3_size: int
    l3_line: int
    l3_assoc: int
    branch_predictor: str
    width: int
    issue_wrongpath: bool
    ruu_size: int
    lsq_size: int
    itlb_size: int
    dtlb_size: int
    fu_ialu: int
    fu_imult: int
    fu_memport: int
    fu_fpalu: int
    fu_fpmult: int

    def __post_init__(self) -> None:
        from repro.simulator.analytic import PREDICTORS

        if self.branch_predictor not in PREDICTORS:
            raise ValueError(
                f"branch_predictor must be one of {PREDICTORS}, "
                f"got {self.branch_predictor!r}"
            )
        for cache, (size, line, assoc) in {
            "l1d": (self.l1d_size, self.l1d_line, self.l1d_assoc),
            "l1i": (self.l1i_size, self.l1i_line, self.l1i_assoc),
            "l2": (self.l2_size, self.l2_line, self.l2_assoc),
        }.items():
            if size <= 0 or line <= 0 or assoc <= 0:
                raise ValueError(f"{cache} geometry must be positive")
            if size % (line * assoc) != 0:
                raise ValueError(f"{cache}: size {size} not divisible by line*assoc")
        if self.l3_size == 0:
            if self.l3_line != 0 or self.l3_assoc != 0:
                raise ValueError("absent L3 must have line=0 and assoc=0")
        else:
            if self.l3_size % (self.l3_line * self.l3_assoc) != 0:
                raise ValueError("l3: size not divisible by line*assoc")
        if self.width <= 0 or self.ruu_size <= 0 or self.lsq_size <= 0:
            raise ValueError("width/ruu/lsq must be positive")
        if min(self.fu_ialu, self.fu_imult, self.fu_memport,
               self.fu_fpalu, self.fu_fpmult) <= 0:
            raise ValueError("functional unit counts must be positive")
        if self.itlb_size <= 0 or self.dtlb_size <= 0:
            raise ValueError("TLB sizes must be positive")

    @property
    def has_l3(self) -> bool:
        return self.l3_size > 0

    def fu_count(self, pool: str) -> int:
        """Functional-unit count by SimpleScalar pool name."""
        try:
            return int(getattr(self, f"fu_{pool}"))
        except AttributeError:
            raise ValueError(f"unknown FU pool {pool!r}") from None

    def short_label(self) -> str:
        """Compact human-readable identifier for logs."""
        l3 = f"L3:{self.l3_size // MB}M" if self.has_l3 else "noL3"
        return (
            f"D{self.l1d_size // KB}K/I{self.l1i_size // KB}K/ln{self.l1d_line}"
            f"/L2:{self.l2_size // KB}Kx{self.l2_assoc}/{l3}"
            f"/{self.branch_predictor}/w{self.width}"
            f"/{'wp' if self.issue_wrongpath else 'nowp'}"
            f"/tlb{self.itlb_size // KB}K"
        )


def enumerate_design_space() -> Iterator[MicroarchConfig]:
    """Yield all 4608 Table-1 configurations in deterministic order.

    The configurations are built once per process and shared between calls
    (they are frozen); each call returns a fresh iterator over them.
    """
    return iter(_table1_space())


@functools.lru_cache(maxsize=1)
def _table1_space() -> tuple[MicroarchConfig, ...]:
    l1_sizes = (16 * KB, 32 * KB, 64 * KB)
    l1_lines = (32, 64)
    l2_sizes = (256 * KB, 1024 * KB)
    l2_assocs = (4, 8)
    l3_options = ((0, 0, 0), (8 * MB, 256, 8))
    predictors = ("perfect", "bimodal", "2level", "combining")
    # Width cluster: (width, RUU, LSQ, ialu, imult, memport, fpalu, fpmult).
    width_clusters = ((4, 128, 64, 4, 2, 2, 4, 2), (8, 256, 128, 8, 4, 4, 8, 4))
    tlb_options = ((256 * KB, 512 * KB), (1024 * KB, 2048 * KB))
    wrongpath = (True, False)

    return tuple(
        MicroarchConfig(
            l1d_size=l1d, l1d_line=line, l1d_assoc=4,
            l1i_size=l1i, l1i_line=line, l1i_assoc=4,
            l2_size=l2s, l2_line=128, l2_assoc=l2a,
            l3_size=l3s, l3_line=l3l, l3_assoc=l3a,
            branch_predictor=bp,
            width=w, issue_wrongpath=wp,
            ruu_size=ruu, lsq_size=lsq,
            itlb_size=itlb, dtlb_size=dtlb,
            fu_ialu=ialu, fu_imult=imult, fu_memport=mem,
            fu_fpalu=fpalu, fu_fpmult=fpmult,
        )
        for (l1d, l1i, line, l2s, l2a, (l3s, l3l, l3a), bp,
             (w, ruu, lsq, ialu, imult, mem, fpalu, fpmult),
             (itlb, dtlb), wp) in itertools.product(
            l1_sizes, l1_sizes, l1_lines, l2_sizes, l2_assocs, l3_options,
            predictors, width_clusters, tlb_options, wrongpath)
    )


#: The 22 integer parameters, in the order dataset and batch columns use.
_NUMERIC_FIELDS = (
    "l1d_size", "l1d_line", "l1d_assoc",
    "l1i_size", "l1i_line", "l1i_assoc",
    "l2_size", "l2_line", "l2_assoc",
    "l3_size", "l3_line", "l3_assoc",
    "width", "ruu_size", "lsq_size",
    "itlb_size", "dtlb_size",
    "fu_ialu", "fu_imult", "fu_memport", "fu_fpalu", "fu_fpmult",
)


#: Numeric mapping of predictor types. The paper (§3.4) notes some inputs
#: "need to be mapped to numeric values" for linear regression; we map each
#: predictor to a quality score spaced by its typical capture rate on SPEC
#: branch populations (bimodal leaves ~14% mispredicted, two-level ~5.5%,
#: combining ~5%, perfect 0%), so the score is roughly proportional to the
#: fraction of branch stalls eliminated. The residual unevenness per
#: application is one of the non-linearities that favours neural networks
#: on the simulation data.
PREDICTOR_RANK: dict[str, float] = {
    "bimodal": 1.0,
    "2level": 2.8,
    "combining": 2.95,
    "perfect": 4.0,
}


def design_space_dataset(
    configs: list[MicroarchConfig], cycles: np.ndarray, target_name: str = "cycles"
) -> Dataset:
    """Build the ML dataset: all 24 Table-1 parameters -> simulated cycles.

    Numeric parameters stay numeric, issue-wrongpath is a flag, and the
    branch predictor is mapped to :data:`PREDICTOR_RANK` (§3.4: categorical
    inputs are "mapped to numeric values" where a sensible mapping exists).
    The columns come from the packed config block; each :class:`Column`
    converts, and so copies, its values.
    """
    from repro.simulator.analytic import PREDICTORS
    from repro.simulator.batch import pack_design_space

    if len(configs) != len(np.asarray(cycles).ravel()):
        raise ValueError(
            f"{len(configs)} configs but {len(np.asarray(cycles).ravel())} cycle values"
        )
    block = pack_design_space(configs)
    columns = [Column(name, ColumnRole.NUMERIC, getattr(block, name))
               for name in _NUMERIC_FIELDS]
    columns.append(Column("issue_wrongpath", ColumnRole.FLAG, block.issue_wrongpath))
    rank = np.array([PREDICTOR_RANK[name] for name in PREDICTORS])
    columns.append(Column("branch_predictor", ColumnRole.NUMERIC, rank[block.predictor]))
    return Dataset(columns, np.asarray(cycles, dtype=np.float64), target_name)
