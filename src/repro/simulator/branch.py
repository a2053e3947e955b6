"""Table-based branch predictors (the four of Table 1).

Real table-indexed predictor simulations, matching SimpleScalar's models:

* **perfect** — oracle; never mispredicts.
* **bimodal** — a table of 2-bit saturating counters indexed by PC.
* **2-level** — PAg-style: a PC-indexed table of per-branch (local)
  history registers selects a 2-bit counter in a pattern history table
  (PC-hashed to reduce aliasing).
* **combining** — bimodal + 2-level with a 2-bit chooser table that learns,
  per PC, which component to trust (McFarling).

These are used by the detailed simulator path and validate the closed-form
per-class misprediction rates in :mod:`repro.simulator.analytic`.

The ``predict``/``update`` methods are the reference. ``simulate_predictor``
runs each table predictor of this module through its own loop over Python
ints, with the counter and history updates written inline, so a branch
costs no method call. Each loop reads and writes the predictor's own
tables in the order ``predict`` then ``update`` would, so the flags and the
final table state are exactly the methods'
(``tests/simulator/test_branch_loops.py`` compares them on random streams
that alias table entries). Any other
:class:`BranchPredictor` subclass runs the generic method loop.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "BranchPredictor",
    "PerfectPredictor",
    "BimodalPredictor",
    "TwoLevelPredictor",
    "CombiningPredictor",
    "make_predictor",
    "simulate_predictor",
]


class BranchPredictor(ABC):
    """Predict-then-update interface over (pc, outcome) streams."""

    name: str = "predictor"

    @abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train on the actual outcome."""


def _ctr_update(ctr: int, taken: bool) -> int:
    if taken:
        return ctr + 1 if ctr < 3 else 3
    return ctr - 1 if ctr > 0 else 0


class PerfectPredictor(BranchPredictor):
    """Oracle predictor (Table 1's 'Perfect')."""

    name = "perfect"

    def __init__(self) -> None:
        self._next: bool | None = None

    def predict(self, pc: int) -> bool:  # noqa: ARG002 - oracle ignores pc
        # The simulation harness feeds the actual outcome through update()
        # *before* asking for the prediction of the same branch; for the
        # stand-alone interface we simply always match via simulate().
        return True

    def update(self, pc: int, taken: bool) -> None:  # noqa: ARG002
        return


class BimodalPredictor(BranchPredictor):
    """PC-indexed 2-bit counter table (SimpleScalar ``bimod``).

    Table 1 does not specify predictor capacities; the default is sized so
    capacity aliasing does not mask the algorithmic comparison.
    """

    name = "bimodal"

    def __init__(self, table_size: int = 8192) -> None:
        if table_size <= 0 or table_size & (table_size - 1):
            raise ValueError(f"table_size must be a power of two, got {table_size}")
        self.table = [2] * table_size  # weakly taken
        self.mask = table_size - 1

    def predict(self, pc: int) -> bool:
        return self.table[(pc >> 2) & self.mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = (pc >> 2) & self.mask
        self.table[i] = _ctr_update(self.table[i], taken)


class TwoLevelPredictor(BranchPredictor):
    """Two-level adaptive predictor with per-branch (local) history.

    SimpleScalar's ``2lev`` with an L1 history table larger than one entry
    (PAg): a PC-indexed table of branch-history registers selects a 2-bit
    counter in the pattern history table. Local history is what captures
    the short deterministic loop patterns of the workload model.
    """

    name = "2level"

    def __init__(
        self,
        history_bits: int = 6,
        l1_size: int = 8192,
        table_size: int = 32768,
    ) -> None:
        if not (1 <= history_bits <= 16):
            raise ValueError(f"history_bits must be in [1, 16], got {history_bits}")
        for val, what in ((l1_size, "l1_size"), (table_size, "table_size")):
            if val <= 0 or val & (val - 1):
                raise ValueError(f"{what} must be a power of two, got {val}")
        self.history_bits = history_bits
        self.histories = [0] * l1_size
        self.l1_mask = l1_size - 1
        self.table = [2] * table_size
        self.mask = table_size - 1
        self.history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        hist = self.histories[(pc >> 2) & self.l1_mask]
        return ((pc >> 2) ^ (hist << 3)) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        h = (pc >> 2) & self.l1_mask
        hist = self.histories[h]
        i = ((pc >> 2) ^ (hist << 3)) & self.mask
        self.table[i] = _ctr_update(self.table[i], taken)
        self.histories[h] = ((hist << 1) | taken) & self.history_mask


class CombiningPredictor(BranchPredictor):
    """McFarling combining predictor: bimodal + 2-level + chooser."""

    name = "combining"

    def __init__(
        self,
        history_bits: int = 6,
        table_size: int = 32768,
        chooser_size: int = 8192,
    ) -> None:
        if chooser_size <= 0 or chooser_size & (chooser_size - 1):
            raise ValueError(f"chooser_size must be a power of two, got {chooser_size}")
        self.bimodal = BimodalPredictor(table_size=max(table_size // 2, 2))
        self.twolevel = TwoLevelPredictor(history_bits, table_size)
        self.chooser = [2] * chooser_size  # prefer 2-level
        self.cmask = chooser_size - 1

    def predict(self, pc: int) -> bool:
        use_two = self.chooser[(pc >> 2) & self.cmask] >= 2
        return self.twolevel.predict(pc) if use_two else self.bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        p_b = self.bimodal.predict(pc)
        p_t = self.twolevel.predict(pc)
        if p_b != p_t:
            i = (pc >> 2) & self.cmask
            self.chooser[i] = _ctr_update(self.chooser[i], p_t == taken)
        self.bimodal.update(pc, taken)
        self.twolevel.update(pc, taken)


def make_predictor(name: str) -> BranchPredictor:
    """Instantiate a predictor by its Table-1 name."""
    table = {
        "perfect": PerfectPredictor,
        "bimodal": BimodalPredictor,
        "2level": TwoLevelPredictor,
        "combining": CombiningPredictor,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown predictor {name!r}; options: {sorted(table)}") from None


def simulate_predictor(
    predictor: BranchPredictor, pcs: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Run a predictor over a branch stream; returns mispredict flags."""
    pcs = np.asarray(pcs, dtype=np.uint64)
    taken = np.asarray(taken, dtype=bool)
    if pcs.shape != taken.shape:
        raise ValueError(f"pcs {pcs.shape} and taken {taken.shape} differ")
    if isinstance(predictor, PerfectPredictor):
        return np.zeros(pcs.shape[0], dtype=bool)
    loop = _LOOPS.get(type(predictor), _method_loop)
    return np.array(loop(predictor, pcs.tolist(), taken.tolist()), dtype=bool)


def _method_loop(p: BranchPredictor, pcs: list[int], taken: list[bool]) -> list[bool]:
    predict = p.predict
    update = p.update
    miss: list[bool] = []
    for pc, t in zip(pcs, taken):
        miss.append(predict(pc) != t)
        update(pc, t)
    return miss


def _bimodal_loop(p: BimodalPredictor, pcs: list[int], taken: list[bool]) -> list[bool]:
    table, mask = p.table, p.mask
    miss: list[bool] = []
    flag = miss.append
    for pc, t in zip(pcs, taken):
        i = (pc >> 2) & mask
        c = table[i]
        flag((c >= 2) != t)
        if t:
            if c < 3:
                table[i] = c + 1
        elif c > 0:
            table[i] = c - 1
    return miss


def _twolevel_loop(p: TwoLevelPredictor, pcs: list[int], taken: list[bool]) -> list[bool]:
    hists, l1_mask, hist_mask = p.histories, p.l1_mask, p.history_mask
    table, mask = p.table, p.mask
    miss: list[bool] = []
    flag = miss.append
    for pc, t in zip(pcs, taken):
        a = pc >> 2
        h = a & l1_mask
        hist = hists[h]
        i = (a ^ (hist << 3)) & mask
        c = table[i]
        flag((c >= 2) != t)
        if t:
            if c < 3:
                table[i] = c + 1
        elif c > 0:
            table[i] = c - 1
        hists[h] = ((hist << 1) | t) & hist_mask
    return miss


def _combining_loop(p: CombiningPredictor, pcs: list[int], taken: list[bool]) -> list[bool]:
    b_table, b_mask = p.bimodal.table, p.bimodal.mask
    two = p.twolevel
    hists, l1_mask, hist_mask = two.histories, two.l1_mask, two.history_mask
    t_table, t_mask = two.table, two.mask
    chooser, c_mask = p.chooser, p.cmask
    miss: list[bool] = []
    flag = miss.append
    for pc, t in zip(pcs, taken):
        a = pc >> 2
        bi = a & b_mask
        bc = b_table[bi]
        h = a & l1_mask
        hist = hists[h]
        ti = (a ^ (hist << 3)) & t_mask
        tc = t_table[ti]
        p_b = bc >= 2
        p_t = tc >= 2
        ci = a & c_mask
        cc = chooser[ci]
        flag((p_t if cc >= 2 else p_b) != t)
        if p_b != p_t:  # the chooser trains toward the component that was right
            if p_t == t:
                if cc < 3:
                    chooser[ci] = cc + 1
            elif cc > 0:
                chooser[ci] = cc - 1
        if t:
            if bc < 3:
                b_table[bi] = bc + 1
            if tc < 3:
                t_table[ti] = tc + 1
        else:
            if bc > 0:
                b_table[bi] = bc - 1
            if tc > 0:
                t_table[ti] = tc - 1
        hists[h] = ((hist << 1) | t) & hist_mask
    return miss


#: The inline loop of each table predictor, keyed by exact type so that a
#: subclass overriding ``predict``/``update`` keeps the method loop.
_LOOPS = {
    BimodalPredictor: _bimodal_loop,
    TwoLevelPredictor: _twolevel_loop,
    CombiningPredictor: _combining_loop,
}
