"""Tests for trace records and op-class metadata."""

import numpy as np
import pytest

from repro.simulator.isa import FU_CLASSES, OP_LATENCY, OpClass, Trace


def _trace(n=10):
    return Trace(
        op=np.zeros(n, dtype=np.uint8),
        pc=np.arange(n, dtype=np.uint64) * 4,
        addr=np.zeros(n, dtype=np.uint64),
        taken=np.zeros(n, dtype=bool),
        dep_dist=np.ones(n, dtype=np.uint16),
        interval_id=np.zeros(n, dtype=np.uint32),
        block_id=np.zeros(n, dtype=np.uint32),
    )


class TestMetadata:
    def test_every_class_has_fu_and_latency(self):
        for op in OpClass:
            assert op in FU_CLASSES
            assert OP_LATENCY[op] >= 1

    def test_memory_ops_use_memports(self):
        assert FU_CLASSES[OpClass.LOAD] == "memport"
        assert FU_CLASSES[OpClass.STORE] == "memport"

    def test_multiplies_slower_than_alu(self):
        assert OP_LATENCY[OpClass.IMULT] > OP_LATENCY[OpClass.IALU]
        assert OP_LATENCY[OpClass.FPMULT] > OP_LATENCY[OpClass.FPALU]


class TestTrace:
    def test_length(self):
        assert len(_trace(5)) == 5
        assert _trace(5).n_instructions == 5

    def test_rejects_mismatched_fields(self):
        t = _trace(5)
        with pytest.raises(ValueError):
            Trace(t.op, t.pc[:3], t.addr, t.taken, t.dep_dist,
                  t.interval_id, t.block_id)

    def test_slice_is_view(self):
        t = _trace(10)
        s = t.slice(2, 6)
        assert len(s) == 4
        s.op[0] = 3
        assert t.op[2] == 3  # shares memory

    def test_masks(self):
        t = _trace(4)
        t.op[1] = int(OpClass.LOAD)
        t.op[2] = int(OpClass.BRANCH)
        assert t.memory_mask.tolist() == [False, True, False, False]
        assert t.branch_mask.tolist() == [False, False, True, False]

