"""Property-based tests for the workload generator's determinism contract.

One shrinkable (or seeded-fallback) integer seed drives the generator
through the invariants the load runner depends on:

* same spec (same seed) ⇒ the identical request stream, twice;
* open-loop inter-arrival gaps are non-negative and offsets non-decreasing;
* hot-set draws respect the configured skew (frequency concentration).

Runs under hypothesis when installed; falls back to a fixed seeded-random
sweep otherwise (same idiom as the LRU contract tests).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.loadgen import (
    PACING_MODES,
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
        n_requests=rng.randint(1, 120),
        n_keys=rng.randint(2, 40),
        seed=seed,
        rate=rng.choice([0.5, 2.0, 8.0, 50.0]),
        hot_fraction=rng.choice([0.1, 0.2, 0.5]),
        hot_weight=rng.choice([0.0, 0.5, 0.8, 1.0]),
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


class TestServeSchedule:
    """The benchmark's ``serve`` workload plans its steady phase with exactly
    this call; its request schedule must not move for a given seed."""

    SHA256 = {
        1: "db09b7f02724cea8571063c16b991aea4b6d06cce15885d7f415452242482c83",
        2: "1470d668424c403118659255b60f0a4ffc4c82296031586288ea96f263256818",
        3: "11fd26c672a678c1b841c070d8cf81828b30eafc15b2f6a1417b84494c479869",
        4: "35a39c264d4269a0ea0b353e5e4c8561d92b1deab39ca46ba59aace31729f136",
        5: "80c2a5020c16650ab5175415e474c596baddd1aa65eb96cd396a2a7ac548b24a",
        6: "b8fb0032a6345a54dba30aa40ee26d29b7f4da6c9124e8747cc7d441521ae451",
        7: "9c7ec8c1fcec2b005979ad1ea7bda28e30852e299abdc2b6abd5d14a080534ef",
        8: "911115525d3028f092739b8cb7c4ef17a5134be097662a1a5659ec2c9fd4ce2e",
        9: "231cab4de5df985e4347ee0d75fc401732e75455b885ac5519893708f209ab7c",
        10: "0ff76a862a4f0a11c36f1469bc370342f3379a68ff5192643bbdb2277b3347e8",
        11: "2112e5b268322cb0fe57c67910d74b0a0cc6e5bf9bfec94085f1c2c9ef0c9694",
    }

    @pytest.mark.parametrize("seed", sorted(SHA256))
    def test_static_open_schedule_is_pinned(self, seed):
        wl = WorkloadSpec(workload="static", pacing="open", n_requests=200,
                          n_keys=40, seed=seed, rate=25.0)
        digest = hashlib.sha256()
        for r in build_requests(wl):
            spec = json.dumps(r.spec.as_dict(), sort_keys=True)
            digest.update(f"{r.i} {r.key} {r.t_offset!r} {spec}\n".encode())
        assert digest.hexdigest() == self.SHA256[seed]


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
        dict(hot_fraction=0.0),
        dict(hot_weight=-0.1),
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            WorkloadSpec(**bad)
