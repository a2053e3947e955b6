"""Batched design-space evaluation: bit-identity against the scalar oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.simulator import (
    BatchResult,
    ConfigBlock,
    evaluate_config,
    evaluate_design_space_batch,
    enumerate_design_space,
    get_profile,
    pack_design_space,
    sweep_design_space,
)
from repro.simulator.analytic import PREDICTORS
from repro.simulator.batch import _gather
from repro.simulator.interval import _miss
from repro.simulator.workloads import SPEC2000_PROFILES


class TestPackDesignSpace:
    def test_round_trip_columns(self, design_space):
        block = pack_design_space(design_space)
        assert block.n_configs == len(design_space)
        assert len(block) == len(design_space)
        for i in (0, 17, len(design_space) - 1):
            cfg = design_space[i]
            assert block.l1d_size[i] == cfg.l1d_size
            assert block.width[i] == cfg.width
            assert block.fu_fpmult[i] == cfg.fu_fpmult
            assert bool(block.issue_wrongpath[i]) == cfg.issue_wrongpath

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pack_design_space([])

    def test_slice_is_zero_copy_view(self, design_space):
        block = pack_design_space(design_space)
        part = block.slice(100, 200)
        assert part.n_configs == 100
        assert part.l1d_size.base is block.l1d_size
        assert np.array_equal(part.width, block.width[100:200])

    def test_mismatched_column_lengths_rejected(self, design_space):
        block = pack_design_space(design_space[:4])
        cols = block.to_arrays()
        cols["width"] = cols["width"][:2]
        with pytest.raises(ValueError, match="width"):
            ConfigBlock(**cols)


def _reference_pack(configs):
    """The per-field ``getattr`` transpose the single-pass pack replaced."""
    cols = {f.name: np.array([getattr(c, f.name) for c in configs], dtype=np.int64)
            for f in dataclasses.fields(ConfigBlock)
            if f.name not in ("predictor", "issue_wrongpath")}
    cols["predictor"] = np.array([PREDICTORS.index(c.branch_predictor) for c in configs],
                                 dtype=np.int64)
    cols["issue_wrongpath"] = np.array([c.issue_wrongpath for c in configs], dtype=bool)
    return cols


def _assert_block_equals(block, reference):
    got = block.to_arrays()
    assert list(got) == list(reference)
    for name, want in reference.items():
        assert got[name].dtype == want.dtype, name
        assert got[name].tobytes() == want.tobytes(), name


class TestTable1Memo:
    def test_full_space_returns_the_shared_block(self, design_space):
        block = pack_design_space(list(enumerate_design_space()))
        assert block is pack_design_space(design_space)
        _assert_block_equals(block, _reference_pack(design_space))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ConfigBlock)])
    def test_shared_columns_are_read_only(self, design_space, name):
        column = getattr(pack_design_space(design_space), name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]

    @pytest.mark.parametrize("variant", ["copies", "reordered", "slice"])
    def test_other_lists_take_the_generic_pack(self, design_space, variant):
        configs = {
            "copies": [dataclasses.replace(c) for c in design_space],
            "reordered": design_space[1:] + design_space[:1],
            "slice": design_space[1000:1200],
        }[variant]
        block = pack_design_space(configs)
        assert block is not pack_design_space(design_space)
        assert block.l1d_size.flags.writeable
        _assert_block_equals(block, _reference_pack(configs))


def _reference_gather(keys, compute):
    """The row-sorting ``_gather`` the 1-D row code replaced."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    vals = np.fromiter((compute(tuple(int(v) for v in row)) for row in uniq),
                       dtype=np.float64, count=uniq.shape[0])
    return vals[inverse.ravel()]


def _gather_cases():
    rng = np.random.default_rng(20260808)
    cases = {
        f"random-{n}x{k}": rng.integers(-5, 6, size=(n, k))
        for n, k in ((40, 2), (300, 3), (1000, 7))
    }
    # Seven columns of ~1000 distinct full-range values: the product of the
    # cardinalities overflows int64, so the code must be re-ranked.
    distinct = rng.integers(-2**62, 2**62, size=(700, 7))
    cases["high-cardinality"] = np.concatenate(
        [distinct, distinct[rng.integers(0, 700, size=500)]])
    cases["one-row"] = np.array([[3, -1, 7]])
    cases["all-duplicated"] = np.tile([[65536, 64, 4]], (50, 1))
    cases["l3-absent-rows"] = np.array(
        [[8 << 20, 256, 8], [0, 0, 0], [0, 0, 0], [8 << 20, 256, 8], [0, 0, 0]])
    cases["k=1"] = rng.integers(0, 9, size=(200, 1))
    return cases


class TestGather:
    @pytest.mark.parametrize("name", sorted(_gather_cases()))
    def test_matches_row_sorting_reference(self, name):
        keys = _gather_cases()[name].astype(np.int64)
        if name == "high-cardinality":
            assert math.prod(len(np.unique(c)) for c in keys.T) > np.iinfo(np.int64).max

        def value(row):
            return float(sum((j + 1) * v for j, v in enumerate(row)) % 1009) + 0.25

        assert np.array_equal(_gather(keys, value), _reference_gather(keys, value))

        # A compute that returns its own call index turns the gathered
        # column into the inverse, and the log records the call order.
        calls, ref_calls = [], []

        def logged(log):
            return lambda row: float(log.append(row) or len(log) - 1)

        inverse = _gather(keys, logged(calls))
        ref_inverse = _reference_gather(keys, logged(ref_calls))
        assert calls == ref_calls
        assert all(type(v) is int for row in calls for v in row)
        assert np.array_equal(inverse, ref_inverse)


class TestBatchBitIdentity:
    def test_full_space_matches_scalar_oracle_every_profile(self, design_space):
        """The headline guarantee: np.array_equal over all 4608 configs."""
        for app in sorted(SPEC2000_PROFILES):
            profile = get_profile(app)
            _miss.cache_clear()
            batch = evaluate_design_space_batch(design_space, profile)
            scalar = np.array(
                [evaluate_config(c, profile).cycles for c in design_space])
            assert np.array_equal(batch, scalar), f"batch diverged for {app}"

    def test_components_match_scalar_fields(self, design_space):
        profile = get_profile("mcf")
        subset = design_space[::97]
        result = evaluate_design_space_batch(subset, profile, components=True)
        assert isinstance(result, BatchResult)
        for i, cfg in enumerate(subset):
            ref = evaluate_config(cfg, profile)
            for f in dataclasses.fields(ref):
                got = getattr(result, f.name)
                want = getattr(ref, f.name)
                if f.name == "n_instructions":
                    assert got == want
                else:
                    assert got[i] == want, (f.name, cfg.short_label())

    def test_accepts_prepacked_block(self, design_space):
        profile = get_profile("gzip")
        subset = design_space[:32]
        via_block = evaluate_design_space_batch(pack_design_space(subset), profile)
        via_list = evaluate_design_space_batch(subset, profile)
        assert np.array_equal(via_block, via_list)

    def test_n_instructions_scales_cycles(self, design_space):
        profile = get_profile("applu")
        subset = design_space[:8]
        small = evaluate_design_space_batch(subset, profile, n_instructions=1_000)
        ref = [evaluate_config(c, profile, n_instructions=1_000).cycles
               for c in subset]
        assert np.array_equal(small, np.array(ref))

    def test_invalid_n_instructions_rejected(self, design_space):
        with pytest.raises(ValueError, match="n_instructions"):
            evaluate_design_space_batch(design_space[:2], get_profile("gcc"),
                                        n_instructions=0)


class TestSweepMethods:
    def test_batch_and_scalar_methods_agree(self, design_space):
        profile = get_profile("swim")
        subset = design_space[:64]
        batch = sweep_design_space(subset, profile, method="batch")
        scalar = sweep_design_space(subset, profile, method="scalar")
        assert np.array_equal(batch, scalar)

    def test_default_method_matches_scalar(self, design_space):
        profile = get_profile("gcc")
        subset = design_space[:16]
        default = sweep_design_space(subset, profile)
        scalar = sweep_design_space(subset, profile, method="scalar")
        assert np.array_equal(default, scalar)

    def test_unknown_method_rejected(self, design_space):
        with pytest.raises(ValueError, match="method"):
            sweep_design_space(design_space[:2], get_profile("gcc"),
                               method="quantum")

    def test_cached_sweep_packs_the_space_once(self, design_space, monkeypatch):
        import repro.simulator.batch as batch
        from repro.cache import ResultCache

        calls = []
        pack = batch.pack_design_space
        monkeypatch.setattr(batch, "pack_design_space",
                            lambda configs: calls.append(1) or pack(configs))
        profile = get_profile("gcc")
        cycles = sweep_design_space(design_space[:64], profile, cache=ResultCache())
        assert len(calls) == 1
        assert np.array_equal(cycles, sweep_design_space(design_space[:64], profile,
                                                         method="scalar"))

    def test_empty_configs(self):
        out = sweep_design_space([], get_profile("gcc"))
        assert out.shape == (0,)
        assert out.dtype == np.float64
