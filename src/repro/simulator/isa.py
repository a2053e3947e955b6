"""Instruction classes and trace records for the CPU simulator.

The simulator is trace-driven, like SimpleScalar's ``sim-outorder`` in
trace mode: a *trace* is a struct-of-arrays of dynamic instructions, each
with an operation class, a program counter, and (for memory operations) an
effective address. Struct-of-arrays keeps every field a contiguous numpy
array so both the detailed pipeline model and the vectorized analyses can
slice it cheaply (HPC guideline: contiguous access, no per-record objects).

Functional-unit classes follow SimpleScalar's five-tuple from Table 1 of
the paper: ``ialu / imult / memport / fpalu / fpmult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any

import numpy as np

__all__ = ["OpClass", "FU_CLASSES", "OP_LATENCY", "Trace"]


class OpClass(IntEnum):
    """Dynamic-instruction operation classes."""

    IALU = 0
    IMULT = 1
    LOAD = 2
    STORE = 3
    FPALU = 4
    FPMULT = 5
    BRANCH = 6


#: Which functional-unit pool each op class occupies (SimpleScalar names).
FU_CLASSES: dict[OpClass, str] = {
    OpClass.IALU: "ialu",
    OpClass.IMULT: "imult",
    OpClass.LOAD: "memport",
    OpClass.STORE: "memport",
    OpClass.FPALU: "fpalu",
    OpClass.FPMULT: "fpmult",
    OpClass.BRANCH: "ialu",  # branches resolve on the integer ALUs
}

#: Execution latency in cycles (memory ops get cache latency added on top).
OP_LATENCY: dict[OpClass, int] = {
    OpClass.IALU: 1,
    OpClass.IMULT: 3,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.FPALU: 2,
    OpClass.FPMULT: 4,
    OpClass.BRANCH: 1,
}


@dataclass
class Trace:
    """A dynamic instruction trace (struct of arrays).

    Attributes
    ----------
    op:
        ``uint8`` array of :class:`OpClass` values, one per instruction.
    pc:
        ``uint64`` instruction addresses (for I-cache and predictor indexing).
    addr:
        ``uint64`` effective byte addresses; 0 for non-memory ops.
    taken:
        ``bool`` branch outcomes; False for non-branches.
    dep_dist:
        ``uint16`` distance (in instructions) to the producer this
        instruction depends on; 0 means no register dependence. Drives the
        pipeline model's dependency stalls.
    interval_id:
        ``uint32`` SimPoint interval index of each instruction (phase
        structure for BBV profiling).
    block_id:
        ``uint32`` static basic-block id (for basic-block vectors).

    :func:`~repro.simulator.machine.simulate_detailed` keeps each private
    component's outcome (L1 misses, TLB hits, mispredicts) on the trace
    object it simulated, in ``_outcomes``, and reuses it for every later
    config with the same component parameters. A trace's arrays must
    therefore not change once it has been simulated. The memo lives and
    dies with the object; :meth:`slice` and :func:`dataclasses.replace`
    build a new trace with an empty one.
    """

    op: np.ndarray
    pc: np.ndarray
    addr: np.ndarray
    taken: np.ndarray
    dep_dist: np.ndarray
    interval_id: np.ndarray
    block_id: np.ndarray

    def __post_init__(self) -> None:
        n = self.op.shape[0]
        for name in ("pc", "addr", "taken", "dep_dist", "interval_id", "block_id"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"trace field {name} has shape {arr.shape}, expected ({n},)")
        # Not a dataclass field: equality, repr and fingerprints ignore it.
        self._outcomes: dict[tuple, Any] = {}

    def __len__(self) -> int:
        return int(self.op.shape[0])

    @property
    def n_instructions(self) -> int:
        return len(self)

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-based sub-trace (no copies; numpy slices are views)."""
        return Trace(
            op=self.op[start:stop],
            pc=self.pc[start:stop],
            addr=self.addr[start:stop],
            taken=self.taken[start:stop],
            dep_dist=self.dep_dist[start:stop],
            interval_id=self.interval_id[start:stop],
            block_id=self.block_id[start:stop],
        )

    @property
    def memory_mask(self) -> np.ndarray:
        """Boolean mask of load/store instructions."""
        return (self.op == int(OpClass.LOAD)) | (self.op == int(OpClass.STORE))

    @property
    def branch_mask(self) -> np.ndarray:
        """Boolean mask of branch instructions."""
        return self.op == int(OpClass.BRANCH)
