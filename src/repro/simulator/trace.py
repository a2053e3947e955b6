"""Synthetic instruction-trace generation from workload profiles.

The detailed simulator path needs concrete streams: per-instruction op
classes, program counters, branch outcomes, and data addresses. This module
*samples* them from the same statistical models the analytic fast path
evaluates in closed form, so the two paths can be cross-validated.

Address-stream construction (the interesting part)
--------------------------------------------------
To realize a target reuse-distance distribution we combine:

* an **exact LRU stack** for the near region (top ``EXACT_STACK`` positions):
  sampling distance *d* pops position *d-1* and pushes it on top, so the
  realized stack distance is exactly the sampled one;
* a **first-touch timeline** for far distances: blocks that have not been
  re-referenced recently keep their first-touch order on the LRU stack, so
  indexing the timeline ``d`` distinct blocks back yields a block whose true
  stack distance is ≈ *d*. This avoids O(d) list surgery for the 10⁴-10⁶
  block distances of memory-bound apps (mcf), which would otherwise dominate
  runtime;
* **sequential spatial references** (probability ``spatial_seq``): the next
  32-byte block after the previous reference;
* **compulsory references**: fresh block ids.

The PC stream is a loop-biased Markov walk over per-phase static basic
blocks (block count scaled to the profile's instruction-footprint median),
which yields phase-distinguishable basic-block vectors for SimPoint and
realistic predictor-indexing behaviour. Branch outcomes are generated per
static branch from the profile's biased / patterned / random class mix.
"""

from __future__ import annotations

import zlib
from collections import deque

import numpy as np

from repro.simulator.isa import OpClass, Trace
from repro.simulator.workloads import BLOCK, WorkloadProfile

__all__ = ["generate_trace", "TraceGenerator", "EXACT_STACK"]

#: Depth of the exact LRU stack; distances beyond use the timeline approximation.
EXACT_STACK = 4096

_TEXT_BASE = 0x0040_0000
_DATA_BASE = 0x1000_0000


def _sample_nonbranch_ops(
    profile: WorkloadProfile, n: int, rng: np.random.Generator, phase_of: np.ndarray
) -> np.ndarray:
    """Op classes for non-branch slots, with mild per-phase mix modulation.

    Branches are placed structurally (one terminating each basic block), so
    this samples from the remaining mix renormalized to the non-branch share.
    """
    base = np.array([
        profile.ialu_fraction,
        profile.mix_fraction("imult"),
        profile.mix_fraction("load"),
        profile.mix_fraction("store"),
        profile.mix_fraction("fpalu"),
        profile.mix_fraction("fpmult"),
    ])
    base /= max(base.sum(), 1e-12)
    order = np.array([
        int(OpClass.IALU), int(OpClass.IMULT), int(OpClass.LOAD),
        int(OpClass.STORE), int(OpClass.FPALU), int(OpClass.FPMULT),
    ], dtype=np.uint8)
    ops = np.empty(n, dtype=np.uint8)
    for phase in range(profile.n_phases):
        mask = phase_of == phase
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        # Phase modulation: scale the memory share by up to ±15%.
        mod = base.copy()
        wobble = 1.0 + 0.15 * np.sin(2.0 * np.pi * (phase + 1) / max(profile.n_phases, 2))
        mod[2:4] *= wobble
        mod = np.clip(mod, 1e-9, None)
        mod /= mod.sum()
        ops[mask] = rng.choice(order, size=cnt, p=mod)
    return ops


def _sample_dep_dists(
    profile: WorkloadProfile, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Register-dependency distances (geometric, mean set by inherent ILP).

    A workload with high inherent ILP has long dependency distances (many
    independent instructions between producer and consumer).
    """
    mean_dist = max(1.5, profile.ilp.ilp_inf * 1.8)
    p = min(1.0 / mean_dist, 0.999)
    d = rng.geometric(p, size=n).astype(np.uint16)
    return np.minimum(d, 512).astype(np.uint16)


class _BranchModel:
    """Per-static-branch outcome generation (biased / patterned / random).

    Class assignment respects code-hotness structure: patterned and
    data-dependent branches concentrate in the *hot* kernels (where they
    execute often enough to matter and to train history predictors), while
    cold-sweep code is uniformly biased — real cold paths are error checks
    and once-taken guards. ``hot_dyn_frac`` is the fraction of dynamic
    branch executions coming from hot blocks; hot static fractions are
    scaled by it so the *dynamic* class mix matches the profile.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        n_static: int,
        rng: np.random.Generator,
        hot_mask: np.ndarray | None = None,
        hot_dyn_frac: float = 0.55,
    ):
        b = profile.branches
        if hot_mask is None:
            hot_mask = np.ones(n_static, dtype=bool)
            hot_dyn_frac = 1.0
        if hot_mask.shape != (n_static,):
            raise ValueError(f"hot_mask must have shape ({n_static},)")
        fp = min(0.9, b.frac_pattern / hot_dyn_frac)
        fr = min(0.9 - fp, b.frac_random / hot_dyn_frac)
        classes = np.zeros(n_static, dtype=np.int64)  # cold: all biased
        hot_idx = np.flatnonzero(hot_mask)
        classes[hot_idx] = rng.choice(
            3, size=hot_idx.size, p=[1.0 - fp - fr, fp, fr]
        )
        self.classes = classes
        # Dominant directions are correlated in real code (loop back-edges
        # taken, error checks not taken): ~80% of biased branches share the
        # taken direction, which keeps predictor-table aliasing benign.
        self.bias_dir = rng.random(n_static) < 0.8
        self.bias = b.bias
        self.periods = rng.integers(b.min_period, b.max_period + 1, size=n_static)
        # Patterned branches: loop-style "taken (p-1) times, then not taken".
        self.counters = np.zeros(n_static, dtype=np.int64)
        self.rng = rng

    def outcomes(self, static_ids: np.ndarray) -> np.ndarray:
        """Vectorized outcome generation for a sequence of branch executions."""
        n = static_ids.shape[0]
        taken = np.empty(n, dtype=bool)
        cls = self.classes[static_ids]
        # Biased: independent draws at the dominant-direction probability.
        biased = cls == 0
        draws = self.rng.random(n)
        dom = self.bias_dir[static_ids]
        taken[biased] = np.where(
            draws[biased] < self.bias, dom[biased], ~dom[biased]
        )
        # Random: fair coin.
        rand = cls == 2
        taken[rand] = draws[rand] < 0.5
        # Patterned: per-branch position counters (loop back-edges).
        pat_idx = np.flatnonzero(cls == 1)
        if pat_idx.size:
            sids = static_ids[pat_idx]
            # Occurrence index of each execution of each static branch.
            occ = np.zeros(pat_idx.size, dtype=np.int64)
            counts: dict[int, int] = {}
            for k, sid in enumerate(sids.tolist()):
                c = counts.get(sid, int(self.counters[sid]))
                occ[k] = c
                counts[sid] = c + 1
            for sid, c in counts.items():
                self.counters[sid] = c
            period = self.periods[sids]
            taken[pat_idx] = (occ % period) != (period - 1)
        return taken


class _AddressModel:
    """Hybrid exact-stack / first-touch-timeline reuse-distance sampler."""

    def __init__(self, profile: WorkloadProfile, rng: np.random.Generator):
        self.mem = profile.data
        self.rng = rng
        # Exact top of the LRU stack, most recent first, and the same blocks
        # as a set: membership tests and the decision to scan cost O(1).
        self.stack: deque[int] = deque(maxlen=EXACT_STACK)
        self.on_stack: set[int] = set()
        self.n_blocks = 0                 # blocks touched so far
        self.prev_block = 0
        # Component sampling distribution (incl. compulsory and streaming).
        comps = self.mem.components
        weights = [c.weight for c in comps]
        stream = max(0.0, 1.0 - self.mem.reuse_weight - self.mem.compulsory)
        self.choices = len(comps)
        self.probs = np.array(weights + [self.mem.compulsory + stream])
        self.probs /= self.probs.sum()
        self.medians = np.array([c.median_blocks for c in comps])
        self.sigmas = np.array([c.sigma for c in comps])

    def generate(self, n_refs: int) -> np.ndarray:
        """Generate ``n_refs`` 32-byte block ids honouring the reuse model."""
        rng = self.rng
        spatial = (rng.random(n_refs) < self.mem.spatial_seq).tolist()
        comp_pick = rng.choice(self.choices + 1, size=n_refs, p=self.probs)
        log_d = rng.standard_normal(n_refs)
        # Sampled reuse distance of every component pick (0 for compulsory
        # and streaming picks), computed for all refs up front.
        reuse = np.flatnonzero(comp_pick < self.choices)
        pick = comp_pick[reuse]
        dist = np.zeros(n_refs)
        dist[reuse] = self.medians[pick] * np.exp(self.sigmas[pick] * log_d[reuse])
        fresh = self.choices  # the compulsory / streaming pick
        out: list[int] = []
        stack = self.stack
        on_stack = self.on_stack
        # Block ids are handed out in first-touch order, so the first-touch
        # timeline is 0 .. n_blocks - 1 and its d-th block from the end is
        # n_blocks - d.
        n_blocks = self.n_blocks
        blk = self.prev_block
        for seq, comp, dd in zip(spatial, comp_pick.tolist(), dist.tolist()):
            if seq and n_blocks > 0:
                blk += 1
                if blk >= n_blocks:
                    blk = n_blocks
                    n_blocks += 1
                elif blk in on_stack:
                    # Keep the stack duplicate-free: a spatial re-touch must
                    # remove the block's old position or realized LRU
                    # distances collapse far below the sampled ones.
                    stack.remove(blk)
                # else: fell off the exact stack; the timeline keeps it
            elif comp == fresh:
                blk = n_blocks
                n_blocks += 1
            else:
                d = max(int(dd), 1)
                if d <= len(stack):
                    blk = stack[d - 1]
                    del stack[d - 1]
                elif d <= n_blocks:
                    blk = n_blocks - d
                    if blk in on_stack:
                        stack.remove(blk)
                else:
                    blk = n_blocks
                    n_blocks += 1
            if len(stack) == EXACT_STACK:  # appendleft drops the bottom block
                on_stack.discard(stack[-1])
            stack.appendleft(blk)
            on_stack.add(blk)
            out.append(blk)
        self.n_blocks = n_blocks
        self.prev_block = blk
        return np.array(out, dtype=np.int64)


class TraceGenerator:
    """Generates reproducible synthetic traces for a workload profile.

    Parameters
    ----------
    profile:
        Workload to model.
    seed:
        Root seed; identical (profile, seed, n) yields identical traces.
    interval_length:
        Instructions per SimPoint interval (paper: 100M; scaled down by
        callers for tractability).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        interval_length: int = 10_000,
    ) -> None:
        if interval_length <= 0:
            raise ValueError(f"interval_length must be positive, got {interval_length}")
        self.profile = profile
        self.seed = seed
        self.interval_length = interval_length

    def generate(self, n_instructions: int) -> Trace:
        """Produce a trace of ``n_instructions`` dynamic instructions."""
        if n_instructions <= 0:
            raise ValueError(f"n_instructions must be positive, got {n_instructions}")
        profile = self.profile
        # zlib.crc32, not hash(): Python string hashing is randomized per
        # process, which would break cross-process reproducibility.
        rng = np.random.default_rng((self.seed, zlib.crc32(profile.name.encode())))
        n = n_instructions

        # Phase layout: contiguous runs of intervals, repeating phase cycle.
        interval_id = (np.arange(n) // self.interval_length).astype(np.uint32)
        n_intervals = int(interval_id[-1]) + 1
        intervals_per_phase = max(1, n_intervals // (profile.n_phases * 2))
        phase_of_interval = (
            np.arange(n_intervals) // intervals_per_phase
        ) % profile.n_phases
        phase_of = phase_of_interval[interval_id]

        dep = _sample_dep_dists(profile, n, rng)

        # --- PC stream: sweep-with-inner-loops walk over per-phase blocks ---
        # Each basic block ends in its branch (the classic layout), so the
        # mean block length is set by the branch fraction, and the static
        # footprint is sized from the instruction-stream working set (the
        # dominant inst component's median, in 32-byte blocks).
        branch_frac = max(profile.mix_fraction("branch"), 0.015)
        mean_len = int(np.clip(round(1.0 / branch_frac), 3, 48))
        lo_len = max(2, mean_len - mean_len // 2)
        hi_len = mean_len + mean_len // 2 + 1
        inst_med = max(c.median_blocks for c in profile.inst.components)
        blocks_per_phase = int(np.clip(inst_med * BLOCK / (4.0 * mean_len), 8, 6000))
        block_lens = rng.integers(lo_len, hi_len, size=profile.n_phases * blocks_per_phase)
        block_bases = _TEXT_BASE + 4 * np.concatenate(
            [[0], np.cumsum(block_lens[:-1])]
        ).astype(np.uint64)
        # Walk: real code concentrates execution — a hot kernel (executed
        # thousands of times; its branches train the predictors) plus cold
        # sweeps over the full footprint (what stresses the I-cache).
        # The walk itself only picks the block of each step, in Python ints;
        # the per-instruction columns are filled from those picks afterwards.
        pos = 0
        sweep = 0
        hot_pos = 0
        hot_set = max(8, blocks_per_phase // 8)
        choice = rng.random(n // max(lo_len, 2) + 2).tolist()
        back_by = rng.integers(2, 9, size=len(choice)).tolist()
        lens = block_lens.tolist()
        phase_l = phase_of_interval.tolist()
        interval_length = self.interval_length
        walk: list[int] = []
        while pos < n:
            base_block = phase_l[pos // interval_length] * blocks_per_phase
            c = choice[len(walk)]
            if c < 0.55:  # hot kernel loop
                hot_pos = (hot_pos + 1) % hot_set
                cur = base_block + hot_pos
            elif c < 0.70:  # inner loop: short backward jump
                cur = base_block + (sweep - back_by[len(walk)]) % blocks_per_phase
            else:  # cold sweep over the full code footprint
                sweep = (sweep + 1) % blocks_per_phase
                cur = base_block + sweep
            walk.append(cur)
            pos += lens[cur]
        # Step k covers [starts[k], starts[k] + spans[k]); only the last
        # step can be cut short by the end of the trace, and a cut block
        # has no block end.
        walked = np.array(walk, dtype=np.int64)
        walked_lens = block_lens[walked]
        ends = np.cumsum(walked_lens)
        starts = ends - walked_lens
        spans = np.minimum(ends, n) - starts
        block_id = np.repeat(walked, spans).astype(np.uint32)
        offset = np.arange(n, dtype=np.uint64) - np.repeat(starts, spans).astype(np.uint64)
        pc = np.repeat(block_bases[walked], spans) + 4 * offset
        is_block_end = np.zeros(n, dtype=bool)
        is_block_end[ends[ends <= n] - 1] = True

        # --- op classes: branch at each block end, mix elsewhere --------------
        ops = np.empty(n, dtype=np.uint8)
        ops[is_block_end] = int(OpClass.BRANCH)
        nb = ~is_block_end
        ops[nb] = _sample_nonbranch_ops(profile, int(nb.sum()), rng, phase_of[nb])

        # --- branch outcomes (one static branch per basic block) --------------
        taken = np.zeros(n, dtype=bool)
        br_mask = is_block_end
        n_static = profile.n_phases * blocks_per_phase
        hot_mask = np.zeros(n_static, dtype=bool)
        for phase in range(profile.n_phases):
            base = phase * blocks_per_phase
            hot_mask[base:base + hot_set] = True
        bmodel = _BranchModel(profile, n_static, rng, hot_mask)
        taken[br_mask] = bmodel.outcomes(block_id[br_mask].astype(np.int64))

        # --- data addresses ---------------------------------------------------
        # Blocks are grouped into 8-block (256 B) chunks, each placed on its
        # own page-ish stride: heap data is page-sparse (TLB realism) while
        # staying byte-adjacent within a chunk (line-size realism up to the
        # 256 B L3 line).
        addr = np.zeros(n, dtype=np.uint64)
        mem_mask = (ops == int(OpClass.LOAD)) | (ops == int(OpClass.STORE))
        amodel = _AddressModel(profile, rng)
        blocks = amodel.generate(int(mem_mask.sum()))
        chunk = blocks // 8
        within = blocks % 8
        stride = np.uint64(4096 + 8 * BLOCK)
        addr[mem_mask] = (
            _DATA_BASE
            + chunk.astype(np.uint64) * stride
            + within.astype(np.uint64) * BLOCK
        )

        return Trace(
            op=ops, pc=pc, addr=addr, taken=taken, dep_dist=dep,
            interval_id=interval_id, block_id=block_id,
        )


def generate_trace(
    profile: WorkloadProfile,
    n_instructions: int,
    seed: int = 0,
    interval_length: int = 10_000,
) -> Trace:
    """Convenience wrapper: one-shot trace generation."""
    return TraceGenerator(profile, seed, interval_length).generate(n_instructions)
