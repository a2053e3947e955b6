"""Tests for closed-form miss rates and misprediction rates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.analytic import (
    PREDICTORS,
    _component_distances,
    _normal_grid,
    component_survival,
    mispredict_rate,
    miss_rate,
    set_associative_hit_given_distance,
    tlb_miss_rate,
)
from repro.simulator.workloads import BranchBehavior, get_profile


class TestComponentSurvival:
    def test_median_point(self):
        # At the median distance, survival is exactly one half.
        assert component_survival(100.0, 1.0, 100.0) == pytest.approx(0.5)

    def test_monotone_in_capacity(self):
        caps = [10, 100, 1000, 10000]
        surv = [component_survival(100.0, 1.0, c) for c in caps]
        assert surv == sorted(surv, reverse=True)

    def test_zero_capacity_always_misses(self):
        assert component_survival(100.0, 1.0, 0) == 1.0


class TestScipyStatsEquality:
    """The analytic kernel calls ``scipy.special`` ufuncs instead of
    ``scipy.stats.norm``; every value must equal the ``norm`` method it
    replaced bit for bit."""

    # (median, sigma, capacity) chosen so z = (log c - log m) / sigma hits
    # +0, -0, +inf, -inf and NaN, plus ordinary and far-tail values.
    CASES = [
        (100.0, 1.0, 100.0),    # +0
        (100.0, -1.0, 100.0),   # -0
        (100.0, 0.0, 200.0),    # +inf
        (100.0, 0.0, 50.0),     # -inf
        (100.0, 0.0, 100.0),    # 0 / 0 = NaN
        (np.nan, 1.0, 100.0),   # NaN median
        (100.0, 1.0, 1e300),
        (1e-300, 0.05, 1e300),
        (1e300, 0.05, 1e-300),
    ] + [(m, s, c) for m in (1.0, 37.5, 4096.0) for s in (0.1, 0.9, 2.7)
         for c in (0.5, 1.0, 64.0, 1e4, 1e7)]

    @pytest.mark.parametrize("median,sigma,capacity", CASES)
    def test_component_survival_equals_norm_sf(self, median, sigma, capacity):
        from scipy.stats import norm

        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(capacity) - np.log(median)) / sigma
            got = component_survival(median, sigma, capacity)
        expected = float(norm.sf(z))
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.signbit(got) == np.signbit(expected)

    def test_ndtr_of_negated_z_equals_norm_sf_on_grid(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        z = np.concatenate([np.linspace(-40.0, 40.0, 801), np.geomspace(1e-300, 1e300, 61),
                            -np.geomspace(1e-300, 1e300, 61),
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        np.testing.assert_array_equal(ndtr(-z), norm.sf(z))

    @pytest.mark.parametrize("n", [1, 2, 7, 96, 97, 1000])
    def test_component_distances_equal_norm_ppf(self, n):
        from scipy.stats import norm

        q = (np.arange(n) + 0.5) / n
        for median, sigma in [(1.0, 1.0), (12.5, 0.3), (3000.0, 2.2), (0.01, 0.0)]:
            expected = median * np.exp(sigma * norm.ppf(q))
            got = _component_distances(median, sigma, n)
            assert got.tobytes() == expected.tobytes()

    def test_normal_grid_is_shared_and_read_only(self):
        grid = _normal_grid(96)
        assert grid is _normal_grid(96)
        with pytest.raises(ValueError):
            grid[0] = 0.0


class TestSetAssociativeCorrection:
    def test_fully_associative_is_threshold(self):
        d = np.array([1.0, 3.0, 4.0, 5.0])
        hit = set_associative_hit_given_distance(d, n_sets=1, assoc=4)
        np.testing.assert_array_equal(hit, [1.0, 1.0, 0.0, 0.0])

    def test_short_distances_always_hit(self):
        d = np.array([1.0, 2.0, 3.0])
        hit = set_associative_hit_given_distance(d, n_sets=64, assoc=4)
        np.testing.assert_array_equal(hit, 1.0)

    def test_random_mapping_worse_than_structured(self):
        d = np.array([200.0])
        rand = set_associative_hit_given_distance(d, 128, 4, structured=0.0)
        struct = set_associative_hit_given_distance(d, 128, 4, structured=1.0)
        assert struct[0] == 1.0  # below capacity 512
        assert rand[0] < 1.0     # random mapping conflicts

    def test_structured_blend_interpolates(self):
        d = np.array([200.0])
        lo = set_associative_hit_given_distance(d, 128, 4, structured=0.0)[0]
        mid = set_associative_hit_given_distance(d, 128, 4, structured=0.5)[0]
        hi = set_associative_hit_given_distance(d, 128, 4, structured=1.0)[0]
        assert lo <= mid <= hi
        assert mid == pytest.approx((lo + hi) / 2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            set_associative_hit_given_distance(np.array([1.0]), 0, 4)
        with pytest.raises(ValueError):
            set_associative_hit_given_distance(np.array([1.0]), 4, 4, structured=2.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1, 1e6), st.sampled_from([64, 128, 512]), st.sampled_from([2, 4, 8]))
    def test_probability_range(self, d, sets, assoc):
        p = set_associative_hit_given_distance(np.array([d]), sets, assoc)
        assert 0.0 <= p[0] <= 1.0


class TestMissRate:
    def test_monotone_in_cache_size(self):
        mem = get_profile("gcc").data
        rates = [miss_rate(mem, kb * 1024, 32, 4) for kb in (16, 32, 64, 256, 1024)]
        assert rates == sorted(rates, reverse=True)

    def test_larger_lines_help_spatial_apps(self):
        mem = get_profile("applu").data  # spatial_seq = 0.62
        assert miss_rate(mem, 32 * 1024, 64, 4) < miss_rate(mem, 32 * 1024, 32, 4)

    def test_no_cache_means_all_miss(self):
        assert miss_rate(get_profile("gcc").data, 0, 32, 4) == 1.0

    def test_in_unit_interval(self):
        for app in ("gcc", "mcf", "applu"):
            for stream in ("data", "inst"):
                mem = getattr(get_profile(app), stream)
                r = miss_rate(mem, 16 * 1024, 32, 4)
                assert 0.0 <= r <= 1.0

    def test_geometry_validation(self):
        mem = get_profile("gcc").data
        with pytest.raises(ValueError):
            miss_rate(mem, 16, 32, 4)  # size < line
        with pytest.raises(ValueError):
            miss_rate(mem, 32 * 1024, 16, 4)  # line < modeling block
        with pytest.raises(ValueError):
            miss_rate(mem, 32 * 1024, 32, 2048)  # assoc > blocks

    def test_realistic_l1_levels(self):
        # L1 miss rates must be single-digit-to-30% (sanity vs literature).
        assert 0.02 < miss_rate(get_profile("gcc").data, 32 * 1024, 32, 4) < 0.15
        assert 0.15 < miss_rate(get_profile("mcf").data, 32 * 1024, 32, 4) < 0.45
        assert miss_rate(get_profile("applu").data, 32 * 1024, 32, 4) < 0.08


class TestTlbMissRate:
    def test_monotone_in_reach(self):
        mem = get_profile("mcf").data
        small = tlb_miss_rate(mem, 512 * 1024)
        large = tlb_miss_rate(mem, 2048 * 1024)
        assert small > large

    def test_mcf_worst_tlb_citizen(self):
        reach = 512 * 1024
        mcf = tlb_miss_rate(get_profile("mcf").data, reach)
        for app in ("gcc", "applu", "mesa", "equake"):
            assert tlb_miss_rate(get_profile(app).data, reach) <= mcf

    def test_rejects_zero_reach(self):
        with pytest.raises(ValueError):
            tlb_miss_rate(get_profile("gcc").data, 0)


class TestMispredictRate:
    def test_perfect_is_zero(self):
        b = get_profile("gcc").branches
        assert mispredict_rate(b, "perfect") == 0.0

    def test_predictor_quality_ordering(self):
        for app in ("gcc", "mcf", "applu", "mesa", "equake"):
            b = get_profile(app).branches
            rates = [mispredict_rate(b, p) for p in ("bimodal", "2level", "combining")]
            assert rates[0] > rates[1] >= rates[2] > 0.0, app

    def test_unknown_predictor(self):
        with pytest.raises(ValueError):
            mispredict_rate(get_profile("gcc").branches, "tage")

    def test_rate_capped_at_half(self):
        b = BranchBehavior(frac_biased=0.0, bias=0.5, frac_pattern=0.0)
        for p in PREDICTORS:
            assert mispredict_rate(b, p) <= 0.5
