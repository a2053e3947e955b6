"""Tests for the SPEC CPU2000 rating computation."""

import numpy as np
import pytest

from repro.specdata import ratings
from repro.specdata.ratings import (
    FP_APPS,
    INT_APPS,
    SpecApp,
    SystemPerformance,
    compute_app_ratios,
)
from repro.util.stats import geometric_mean


def compute_rate(apps, perf, rng=None):
    """SPEC rate: geometric mean of the per-app throughput ratios."""
    return geometric_mean(list(compute_app_ratios(apps, perf, rng).values()))


def _perf(**overrides):
    kw = dict(clock=1.0, l2=1.0, memfreq=1.0, bus=1.0, memsize=1.0,
              n_cores=1, arch_factor=1.0, smt=False)
    kw.update(overrides)
    return SystemPerformance(**kw)


class TestSuites:
    def test_app_counts_match_spec2000(self):
        # "12 integer applications, 14 floating-point applications"
        assert len(INT_APPS) == 12
        assert len(FP_APPS) == 14

    def test_mcf_memory_heaviest_int_app(self):
        mcf = next(a for a in INT_APPS if "mcf" in a.name)
        assert mcf.mem_exp == max(a.mem_exp for a in INT_APPS)
        assert mcf.clock_exp == min(a.clock_exp for a in INT_APPS)

    def test_ref_times_positive(self):
        assert all(a.ref_time > 0 for a in INT_APPS + FP_APPS)

    def test_spec_app_validation(self):
        with pytest.raises(ValueError):
            SpecApp("x", -1.0, 0.9, 0.1, 0.1)
        with pytest.raises(ValueError):
            SpecApp("x", 100.0, 2.0, 0.1, 0.1)


class TestComputeRate:
    def test_reference_machine_rates_scale(self):
        rate = compute_rate(INT_APPS, _perf())
        assert rate == pytest.approx(10.0, rel=1e-9)

    def test_faster_clock_raises_rate(self):
        slow = compute_rate(INT_APPS, _perf(clock=1.0))
        fast = compute_rate(INT_APPS, _perf(clock=1.5))
        assert fast > slow
        # Sub-linear in clock: memory-bound apps cap the geomean gain.
        assert fast / slow < 1.5

    def test_more_cache_raises_rate(self):
        assert compute_rate(INT_APPS, _perf(l2=2.0)) > compute_rate(INT_APPS, _perf())

    def test_smt_gain(self):
        assert compute_rate(INT_APPS, _perf(smt=True)) > compute_rate(INT_APPS, _perf())

    def test_rate_scaling_sublinear(self):
        one = compute_rate(INT_APPS, _perf(n_cores=1))
        eight = compute_rate(INT_APPS, _perf(n_cores=8))
        assert 4.0 < eight / one < 8.0  # speedup but below ideal

    def test_fast_memory_helps_smp_more(self):
        # The §4.4 mechanism: memory frequency matters more at higher N.
        def gain(n):
            lo = compute_rate(INT_APPS, _perf(n_cores=n, memfreq=0.8))
            hi = compute_rate(INT_APPS, _perf(n_cores=n, memfreq=1.6))
            return hi / lo
        assert gain(8) > gain(1)

    def test_noise_reproducible(self, monkeypatch):
        monkeypatch.setattr(ratings, "APP_NOISE", 0.05)
        a = compute_rate(INT_APPS, _perf(), np.random.default_rng(3))
        b = compute_rate(INT_APPS, _perf(), np.random.default_rng(3))
        assert a == b

    def test_noise_moves_result(self, monkeypatch):
        monkeypatch.setattr(ratings, "APP_NOISE", 0.05)
        clean = compute_rate(INT_APPS, _perf())
        noisy = compute_rate(INT_APPS, _perf(), np.random.default_rng(4))
        assert noisy != clean
        assert noisy == pytest.approx(clean, rel=0.15)

    def test_feature_validation(self):
        with pytest.raises(ValueError):
            _perf(clock=0.0)
        with pytest.raises(ValueError):
            _perf(n_cores=0)
        with pytest.raises(ValueError):
            _perf(scaling_eff=0.3)
