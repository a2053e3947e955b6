"""Property-based tests for the workload generators' determinism contract.

One shrinkable (or seeded-fallback) integer seed drives every shape
through the invariants the load runner and the cache oracle depend on:

* same spec (same seed) ⇒ the identical request stream, twice;
* open-loop inter-arrival gaps are non-negative and offsets non-decreasing;
* hot-set draws respect the configured skew (frequency concentration);
* phase-shift boundaries land exactly where the spec schedules them.

Runs under hypothesis when installed; falls back to a fixed seeded-random
sweep otherwise (same idiom as the LRU contract tests).
"""

from __future__ import annotations

import random

import pytest

from repro.loadgen import (
    PACING_MODES,
    WORKLOAD_SHAPES,
    ReqGenEngine,
    SpecCatalog,
    WorkloadSpec,
    build_requests,
)

try:
    from hypothesis import given, settings, strategies as st

    def seeds(n_examples: int = 25, max_seed: int = 10**6):
        """Feed the test a shrinkable integer seed via hypothesis."""

        def deco(fn):
            return settings(max_examples=n_examples, deadline=None)(
                given(st.integers(0, max_seed))(fn)
            )

        return deco

except ImportError:  # pragma: no cover - exercised only without hypothesis

    def seeds(n_examples: int = 25, max_seed: int = 10**6):
        """Fallback: a fixed, seeded sweep of random example seeds."""
        picker = random.Random(20260808)
        chosen = [picker.randrange(max_seed + 1) for _ in range(n_examples)]

        def deco(fn):
            return pytest.mark.parametrize("seed", chosen)(fn)

        return deco


def _spec(seed: int, **overrides) -> WorkloadSpec:
    rng = random.Random(seed)
    base = dict(
        workload=rng.choice(WORKLOAD_SHAPES),
        n_requests=rng.randint(1, 120),
        n_keys=rng.randint(2, 40),
        seed=seed,
        rate=rng.choice([0.5, 2.0, 8.0, 50.0]),
        hot_fraction=rng.choice([0.1, 0.2, 0.5]),
        hot_weight=rng.choice([0.0, 0.5, 0.8, 1.0]),
        n_phases=rng.randint(1, 6),
        period=rng.randint(1, 30),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestDeterminism:
    @seeds()
    def test_same_seed_identical_stream(self, seed):
        wl = _spec(seed)
        first = build_requests(wl)
        second = build_requests(wl)
        assert first == second
        assert len(first) == wl.n_requests

    @seeds(n_examples=10)
    def test_different_streams_are_independent(self, seed):
        # Key choice and arrival schedule come from separate seeded streams:
        # changing the arrival rate must not change which keys are requested.
        slow = build_requests(_spec(seed, rate=0.5))
        fast = build_requests(_spec(seed, rate=50.0))
        assert [r.key for r in slow] == [r.key for r in fast]
        if len(slow) > 1:
            assert slow[-1].t_offset > fast[-1].t_offset

    @seeds(n_examples=10)
    def test_requests_map_to_catalog_specs(self, seed):
        catalog = SpecCatalog()
        for req in build_requests(_spec(seed), catalog):
            index = int(req.key[1:])
            assert req.key == catalog.key(index)
            assert req.spec == catalog.spec(index)
            assert 0 <= req.spec.start < req.spec.stop <= catalog.space_size


class TestPacing:
    @seeds()
    def test_open_loop_offsets_non_negative_and_monotone(self, seed):
        wl = _spec(seed, pacing="open")
        offsets = [r.t_offset for r in build_requests(wl)]
        assert offsets[0] == 0.0
        assert all(b >= a >= 0.0 for a, b in zip(offsets, offsets[1:]))

    def test_open_is_the_default_and_only_pacing(self):
        assert PACING_MODES == ("open",)
        assert WorkloadSpec().pacing == "open"

    def test_open_loop_rate_sets_the_mean_gap(self):
        wl = WorkloadSpec(pacing="open", n_requests=4000, seed=3, rate=10.0)
        offsets = ReqGenEngine(wl).arrival_offsets()
        mean_gap = offsets[-1] / (len(offsets) - 1)
        assert mean_gap == pytest.approx(1.0 / wl.rate, rel=0.1)


class TestHotSetSkew:
    @seeds(n_examples=15)
    def test_static_hot_set_respects_the_skew(self, seed):
        wl = _spec(seed, workload="static", n_requests=600, n_keys=20,
                   hot_fraction=0.2, hot_weight=0.8)
        n_hot = max(1, int(wl.n_keys * wl.hot_fraction))
        indices = ReqGenEngine(wl).key_indices()
        hot_share = sum(1 for i in indices if i < n_hot) / len(indices)
        # 600 draws at p=0.8: a seeded binomial stays well inside +/-0.1.
        assert hot_share == pytest.approx(wl.hot_weight, abs=0.1)

    def test_hot_weight_one_never_leaves_the_hot_set(self):
        wl = WorkloadSpec(workload="static", n_requests=300, n_keys=10,
                          seed=5, hot_fraction=0.2, hot_weight=1.0)
        n_hot = max(1, int(wl.n_keys * wl.hot_fraction))
        assert all(i < n_hot for i in ReqGenEngine(wl).key_indices())

    def test_scan_cold_draws_advance_round_robin(self):
        wl = WorkloadSpec(workload="scan", n_requests=200, n_keys=10,
                          seed=9, hot_fraction=0.2, hot_weight=0.0)
        n_hot = max(1, int(wl.n_keys * wl.hot_fraction))
        indices = ReqGenEngine(wl).key_indices()
        scan_len = wl.n_keys - n_hot
        expected = [n_hot + (i % scan_len) for i in range(len(indices))]
        assert indices == expected


class TestPhaseShift:
    @seeds(n_examples=15)
    def test_boundaries_land_on_schedule(self, seed):
        wl = _spec(seed, workload="phase_shift", hot_weight=1.0)
        engine = ReqGenEngine(wl)
        boundaries = engine.phase_boundaries()
        per_phase = wl.n_requests // wl.n_phases
        assert boundaries == [p * per_phase for p in range(wl.n_phases)]
        if per_phase == 0:
            return
        indices = engine.key_indices()
        for phase in range(wl.n_phases):
            lo, hi = engine.phase_window(phase)
            start = boundaries[phase]
            stop = (boundaries[phase + 1] if phase + 1 < wl.n_phases
                    else wl.n_requests)
            for i in indices[start:stop]:
                assert lo <= i < hi, (
                    f"request in phase {phase} drew key {i} outside its "
                    f"hot window [{lo}, {hi})")

    def test_oscillating_flips_every_period(self):
        wl = WorkloadSpec(workload="oscillating", n_requests=100, n_keys=10,
                          seed=4, period=25)
        half = wl.n_keys // 2
        indices = ReqGenEngine(wl).key_indices()
        for i, key in enumerate(indices):
            if (i // wl.period) % 2 == 0:
                assert key < half
            else:
                assert key >= half


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(workload="zipf"),
        dict(pacing="batch"),
        dict(pacing="closed"),
        dict(n_requests=0),
        dict(n_keys=1),
        dict(rate=0.0),
        dict(hot_fraction=1.0),
        dict(hot_weight=1.5),
        dict(n_phases=0),
        dict(period=0),
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            WorkloadSpec(**bad)
