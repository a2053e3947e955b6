"""Tests for the synthetic trace generator."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.simulator.isa import OpClass
from repro.simulator.trace import EXACT_STACK, TraceGenerator, _AddressModel, generate_trace
from repro.simulator.workloads import SPEC2000_PROFILES, get_profile

#: "app/seed/length" -> Trace field -> SHA-256 of its dtype string and bytes.
_TRACE_DIGESTS = json.loads(
    (Path(__file__).with_name("trace_digests.json")).read_text())


class TestBasics:
    def test_exact_length(self, trace_cache):
        assert len(trace_cache("gcc")) == 60_000

    def test_deterministic(self):
        p = get_profile("gzip")
        a = generate_trace(p, 5_000, seed=3)
        b = generate_trace(p, 5_000, seed=3)
        np.testing.assert_array_equal(a.op, b.op)
        np.testing.assert_array_equal(a.addr, b.addr)
        np.testing.assert_array_equal(a.taken, b.taken)

    def test_seed_changes_stream(self):
        p = get_profile("gzip")
        a = generate_trace(p, 5_000, seed=3)
        b = generate_trace(p, 5_000, seed=4)
        assert not np.array_equal(a.addr, b.addr)

    def test_rejects_bad_args(self):
        p = get_profile("gzip")
        with pytest.raises(ValueError):
            generate_trace(p, 0)
        with pytest.raises(ValueError):
            TraceGenerator(p, interval_length=0)


class TestMixFidelity:
    @pytest.mark.parametrize("app", ["gcc", "mcf", "applu", "mesa"])
    def test_branch_fraction_close(self, app, trace_cache):
        tr = trace_cache(app)
        want = get_profile(app).mix_fraction("branch")
        got = float(tr.branch_mask.mean())
        assert got == pytest.approx(want, abs=max(0.02, 0.3 * want))

    @pytest.mark.parametrize("app", ["gcc", "mcf", "applu"])
    def test_memory_fraction_close(self, app, trace_cache):
        tr = trace_cache(app)
        p = get_profile(app)
        want = p.mix_fraction("load") + p.mix_fraction("store")
        got = float(tr.memory_mask.mean())
        assert got == pytest.approx(want, abs=0.05)

    def test_fp_app_has_fp_ops(self, trace_cache):
        tr = trace_cache("applu")
        assert np.mean(tr.op == int(OpClass.FPALU)) > 0.15

    def test_int_app_has_no_fp_ops(self, trace_cache):
        tr = trace_cache("mcf")
        assert not np.any(tr.op == int(OpClass.FPALU))
        assert not np.any(tr.op == int(OpClass.FPMULT))


class TestStructure:
    def test_branches_terminate_blocks(self, trace_cache):
        tr = trace_cache("gcc")
        br_idx = np.flatnonzero(tr.branch_mask)[:-1]
        # The instruction after a branch starts a new basic block.
        assert (tr.block_id[br_idx + 1] != tr.block_id[br_idx]).mean() > 0.95

    def test_memory_ops_have_addresses(self, trace_cache):
        tr = trace_cache("mcf")
        assert (tr.addr[tr.memory_mask] > 0).all()
        assert (tr.addr[~tr.memory_mask] == 0).all()

    def test_interval_ids_monotone(self, trace_cache):
        tr = trace_cache("gcc")
        assert (np.diff(tr.interval_id.astype(np.int64)) >= 0).all()

    def test_nonbranches_never_taken(self, trace_cache):
        tr = trace_cache("applu")
        assert not tr.taken[~tr.branch_mask].any()

    def test_data_pages_are_sparse(self, trace_cache):
        # Chunk scattering: the page working set must be much larger than a
        # dense packing of the touched bytes would give.
        tr = trace_cache("mcf")
        addrs = tr.addr[tr.memory_mask]
        pages = np.unique(addrs // 4096).size
        dense_pages = np.unique(addrs // 32).size * 32 // 4096 + 1
        assert pages > 4 * dense_pages


class TestReuseFidelity:
    def test_realized_stack_distances_track_model(self, trace_cache):
        # The generated gcc stream must show ~the modeled deep-reuse mass.
        tr = trace_cache("gcc")
        blocks = (tr.addr[tr.memory_mask] // 32).astype(np.int64)[:40_000]
        stack: list[int] = []
        deep = total = 0
        for b in blocks.tolist():
            try:
                i = stack.index(b)
                total += 1
                if i >= 512:
                    deep += 1
                stack.pop(i)
            except ValueError:
                pass
            stack.insert(0, b)
        frac_deep = deep / max(total, 1)
        # gcc's mid component (weight 0.085, median 600 blocks) puts roughly
        # 4-14% of reuses beyond 512 blocks, boosted by spatial continuation.
        assert 0.02 < frac_deep < 0.25


def _list_stack_blocks(model, n_refs, state):
    """The reuse sampler written with plain lists for its LRU stack and
    first-touch timeline, drawing the same random numbers. ``state`` holds
    the lists and the previous block between calls."""
    rng = model.rng
    spatial = (rng.random(n_refs) < model.mem.spatial_seq).tolist()
    comp_pick = rng.choice(model.choices + 1, size=n_refs, p=model.probs)
    log_d = rng.standard_normal(n_refs)
    reuse = np.flatnonzero(comp_pick < model.choices)
    dist = np.zeros(n_refs)
    dist[reuse] = (model.medians[comp_pick[reuse]]
                   * np.exp(model.sigmas[comp_pick[reuse]] * log_d[reuse]))
    stack, timeline = state["stack"], state["timeline"]

    def new():
        timeline.append(len(timeline))
        return timeline[-1]

    out = []
    for i in range(n_refs):
        if spatial[i] and timeline:
            blk = state["prev"] + 1
            if blk >= len(timeline):
                blk = new()
            elif blk in stack:
                stack.remove(blk)
        elif comp_pick[i] == model.choices:
            blk = new()
        else:
            d = max(int(dist[i]), 1)
            if d <= len(stack):
                blk = stack.pop(d - 1)
            elif d <= len(timeline):
                blk = timeline[len(timeline) - d]
                if blk in stack:
                    stack.remove(blk)
            else:
                blk = new()
        stack.insert(0, blk)
        del stack[EXACT_STACK:]
        state["prev"] = blk
        out.append(blk)
    return out


class TestExactStack:
    """The deque-and-set LRU stack of the address sampler equals a plain
    list, past the lengths the digest pin covers and across calls."""

    @pytest.mark.parametrize("app", ["mcf", "gcc", "art"])
    def test_matches_list_stack(self, app):
        fast = _AddressModel(get_profile(app), np.random.default_rng(5))
        slow = _AddressModel(get_profile(app), np.random.default_rng(5))
        state = {"stack": [], "timeline": [], "prev": 0}
        for n_refs in (30_000, 1, 40_000):
            assert (fast.generate(n_refs).tolist()
                    == _list_stack_blocks(slow, n_refs, state))
        # Every block touched is pushed and only evictions pop one; mcf
        # touches more than EXACT_STACK blocks.
        assert len(fast.stack) == min(fast.n_blocks, EXACT_STACK)
        assert list(fast.stack) == state["stack"]
        assert fast.on_stack == set(state["stack"])


class TestTraceBitPin:
    """Bit pin of the generator: the SHA-256 of every :class:`Trace` array.

    Trace generation is the input of the detailed path (SimPoint, the
    fidelity check), and its loops are where speed work happens. For all
    12 profiles × seeds {0, 7} × lengths {3, 1234, 50 000}, each array's
    dtype and bytes must hash to the value in ``trace_digests.json``. The
    recorded digests must not be regenerated to admit a generator change:
    a rewrite is only correct if it reproduces them as they stand.
    """

    @staticmethod
    def _digests(trace) -> dict[str, str]:
        out = {}
        for f in dataclasses.fields(trace):
            arr = np.ascontiguousarray(getattr(trace, f.name))
            h = hashlib.sha256(arr.dtype.str.encode())
            h.update(arr.tobytes())
            out[f.name] = h.hexdigest()
        return out

    @pytest.mark.parametrize("key", sorted(_TRACE_DIGESTS))
    def test_arrays_match_recorded_digests(self, key):
        app, seed, length = key.split("/")
        trace = generate_trace(get_profile(app), int(length), seed=int(seed))
        assert self._digests(trace) == _TRACE_DIGESTS[key]

    def test_grid_is_complete(self):
        want = {f"{app}/{seed}/{length}" for app in SPEC2000_PROFILES
                for seed in (0, 7) for length in (3, 1234, 50_000)}
        assert set(_TRACE_DIGESTS) == want
