"""Tests for the Table-1 design space (4608 configurations)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.simulator.batch import pack_design_space
from repro.simulator.config import (
    DESIGN_SPACE_SIZE,
    KB,
    MB,
    MicroarchConfig,
    PREDICTOR_RANK,
    _NUMERIC_FIELDS,
    design_space_dataset,
    enumerate_design_space,
)


class TestEnumeration:
    def test_exactly_4608_configurations(self, design_space):
        # "Table 1 ... corresponds to 4608 different configurations" (§4.1).
        assert len(design_space) == DESIGN_SPACE_SIZE == 4608

    def test_all_unique(self, design_space):
        assert len(set(design_space)) == 4608

    def test_deterministic_order(self, design_space):
        again = list(enumerate_design_space())
        assert again[0] == design_space[0]
        assert again[-1] == design_space[-1]

    def test_table1_value_sets(self, design_space):
        assert {c.l1d_size for c in design_space} == {16 * KB, 32 * KB, 64 * KB}
        assert {c.l1d_line for c in design_space} == {32, 64}
        assert {c.l1d_assoc for c in design_space} == {4}
        assert {c.l2_size for c in design_space} == {256 * KB, 1024 * KB}
        assert {c.l2_line for c in design_space} == {128}
        assert {c.l2_assoc for c in design_space} == {4, 8}
        assert {c.l3_size for c in design_space} == {0, 8 * MB}
        assert {c.branch_predictor for c in design_space} == {
            "perfect", "bimodal", "2level", "combining"}
        assert {c.width for c in design_space} == {4, 8}
        assert {c.ruu_size for c in design_space} == {128, 256}
        assert {c.lsq_size for c in design_space} == {64, 128}
        assert {c.itlb_size for c in design_space} == {256 * KB, 1024 * KB}
        assert {c.dtlb_size for c in design_space} == {512 * KB, 2048 * KB}

    def test_width_cluster_tied(self, design_space):
        for c in design_space:
            if c.width == 4:
                assert (c.ruu_size, c.lsq_size, c.fu_ialu) == (128, 64, 4)
            else:
                assert (c.ruu_size, c.lsq_size, c.fu_ialu) == (256, 128, 8)

    def test_l3_rows_move_together(self, design_space):
        for c in design_space:
            if c.l3_size:
                assert (c.l3_line, c.l3_assoc) == (256, 8)
            else:
                assert (c.l3_line, c.l3_assoc) == (0, 0)

    def test_l1_lines_shared(self, design_space):
        assert all(c.l1d_line == c.l1i_line for c in design_space)


class TestMemoizedEnumeration:
    """The space is built once per process; every call still behaves like
    a fresh enumeration."""

    def test_repeated_calls_yield_table1_order(self):
        # Free axes in Table-1 order, the last one varying fastest.
        expected = [
            (l1d, l1i, line, l2s, l2a, l3s, bp, w, itlb, wp)
            for l1d, l1i, line, l2s, l2a, l3s, bp, w, itlb, wp in itertools.product(
                (16 * KB, 32 * KB, 64 * KB), (16 * KB, 32 * KB, 64 * KB), (32, 64),
                (256 * KB, 1024 * KB), (4, 8), (0, 8 * MB),
                ("perfect", "bimodal", "2level", "combining"), (4, 8),
                (256 * KB, 1024 * KB), (True, False))
        ]
        first, second = list(enumerate_design_space()), list(enumerate_design_space())
        assert first == second
        assert [(c.l1d_size, c.l1i_size, c.l1d_line, c.l2_size, c.l2_assoc,
                 c.l3_size, c.branch_predictor, c.width, c.itlb_size,
                 c.issue_wrongpath) for c in first] == expected

    def test_each_call_returns_a_fresh_iterator(self):
        a, b = enumerate_design_space(), enumerate_design_space()
        assert a is not b
        assert next(a) == next(b)
        assert len(list(a)) == DESIGN_SPACE_SIZE - 1
        assert len(list(enumerate_design_space())) == DESIGN_SPACE_SIZE

    def test_mutating_a_returned_list_leaves_the_space_intact(self):
        configs = list(enumerate_design_space())
        head = configs[0]
        configs.reverse()
        del configs[:100]
        configs.append(head)
        again = list(enumerate_design_space())
        assert again is not configs
        assert len(again) == DESIGN_SPACE_SIZE
        assert again[0] == head

    def test_worker_sweep_job_equals_library_sweep_slice(self, tmp_path):
        from repro.service import JobSpec, JobSpool, drain_queue
        from repro.simulator import get_profile, sweep_design_space

        spool = JobSpool.ensure(tmp_path / "spool")
        spec = JobSpec(kind="sweep", app="gcc", start=8, stop=16,
                       n_instructions=1_000_000)
        jid = spool.submit(spec)
        assert drain_queue(spool) == 1
        library = sweep_design_space(list(enumerate_design_space()),
                                     get_profile("gcc"), n_instructions=1_000_000)
        assert np.array_equal(np.asarray(spool.result(jid)["cycles"]), library[8:16])


class TestValidation:
    def _base(self, **overrides):
        kw = dict(
            l1d_size=16 * KB, l1d_line=32, l1d_assoc=4,
            l1i_size=16 * KB, l1i_line=32, l1i_assoc=4,
            l2_size=256 * KB, l2_line=128, l2_assoc=4,
            l3_size=0, l3_line=0, l3_assoc=0,
            branch_predictor="bimodal", width=4, issue_wrongpath=False,
            ruu_size=128, lsq_size=64,
            itlb_size=256 * KB, dtlb_size=512 * KB,
            fu_ialu=4, fu_imult=2, fu_memport=2, fu_fpalu=4, fu_fpmult=2,
        )
        kw.update(overrides)
        return MicroarchConfig(**kw)

    def test_valid_config_accepted(self):
        self._base()

    def test_rejects_bad_predictor(self):
        with pytest.raises(ValueError):
            self._base(branch_predictor="neural")

    def test_rejects_untiled_geometry(self):
        with pytest.raises(ValueError):
            self._base(l1d_size=10_000)

    def test_rejects_partial_l3(self):
        with pytest.raises(ValueError):
            self._base(l3_size=0, l3_line=256)

    def test_fu_count_lookup(self):
        c = self._base()
        assert c.fu_count("memport") == 2
        with pytest.raises(ValueError):
            c.fu_count("vector")

    def test_short_label_mentions_key_axes(self):
        label = self._base().short_label()
        assert "D16K" in label and "bimodal" in label and "noL3" in label


class TestDesignSpaceDataset:
    def test_all_24_parameters_present(self, design_space):
        ds = design_space_dataset(design_space[:10], np.arange(10) + 1.0)
        assert len(ds.column_names) == 24

    def test_predictor_is_quality_rank(self, design_space):
        ds = design_space_dataset(design_space[:100], np.arange(100) + 1.0)
        col = ds.column("branch_predictor")
        assert col.role is ColumnRole.NUMERIC
        assert set(np.unique(col.values)) <= set(PREDICTOR_RANK.values())

    def test_wrongpath_is_flag(self, design_space):
        ds = design_space_dataset(design_space[:10], np.arange(10) + 1.0)
        assert ds.column("issue_wrongpath").role is ColumnRole.FLAG

    def test_rank_ordered_by_quality(self):
        assert (PREDICTOR_RANK["bimodal"] < PREDICTOR_RANK["2level"]
                < PREDICTOR_RANK["combining"] < PREDICTOR_RANK["perfect"])

    def test_length_mismatch_rejected(self, design_space):
        with pytest.raises(ValueError):
            design_space_dataset(design_space[:5], np.arange(4) + 1.0)


def _reference_dataset(configs, cycles):
    """The per-config ``getattr`` build the block-based dataset replaced."""
    columns = [Column(name, ColumnRole.NUMERIC,
                      np.array([getattr(c, name) for c in configs], dtype=np.float64))
               for name in _NUMERIC_FIELDS]
    columns.append(Column("issue_wrongpath", ColumnRole.FLAG,
                          np.array([c.issue_wrongpath for c in configs])))
    columns.append(Column("branch_predictor", ColumnRole.NUMERIC,
                          np.array([PREDICTOR_RANK[c.branch_predictor] for c in configs])))
    return Dataset(columns, np.asarray(cycles, dtype=np.float64), "cycles")


class TestDatasetFromBlock:
    def test_numeric_fields_are_config_fields(self):
        names = [f.name for f in dataclasses.fields(MicroarchConfig)]
        assert set(_NUMERIC_FIELDS) <= set(names)
        assert len(set(_NUMERIC_FIELDS)) == len(_NUMERIC_FIELDS) == 22

    @pytest.mark.parametrize("part", ["full", "slice"])
    def test_equals_reference_build(self, design_space, part):
        configs = design_space if part == "full" else design_space[2000:2300]
        cycles = np.arange(len(configs)) * 3.0 + 1.0
        got = design_space_dataset(configs, cycles)
        want = _reference_dataset(configs, cycles)
        assert [c.name for c in got.columns] == [c.name for c in want.columns]
        for g, w in zip(got.columns, want.columns):
            assert g.role is w.role, g.name
            assert g.values.dtype == w.values.dtype, g.name
            assert g.values.tobytes() == w.values.tobytes(), g.name
        assert got.target.tobytes() == want.target.tobytes()

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            design_space_dataset([], np.array([]))

    def test_columns_do_not_alias_the_shared_block(self, design_space):
        block = pack_design_space(design_space)
        ds = design_space_dataset(design_space, np.ones(len(design_space)))
        for column in ds.columns:
            assert column.values.flags.writeable, column.name
            for shared in block.to_arrays().values():
                assert not np.shares_memory(column.values, shared), column.name
