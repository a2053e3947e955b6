"""Tests for the synthetic announcement generator."""

import numpy as np
import pytest

import repro.specdata.generator as generator
import repro.specdata.ratings as ratings
from repro.specdata.families import FAMILIES, get_family
from repro.specdata.generator import generate_family_records


class TestDeterminism:
    def test_same_seed_same_records(self):
        a = generate_family_records("opteron", seed=3)
        b = generate_family_records("opteron", seed=3)
        assert [r.specint_rate for r in a] == [r.specint_rate for r in b]

    def test_different_seed_differs(self):
        a = generate_family_records("opteron", seed=3)
        b = generate_family_records("opteron", seed=4)
        assert [r.specint_rate for r in a] != [r.specint_rate for r in b]


class TestStructure:
    def test_counts_match_family_model(self, spec_archive):
        for name, fam in FAMILIES.items():
            assert len(spec_archive(name)) == sum(y.count for y in fam.years.values())

    def test_year_filter(self):
        recs = generate_family_records("xeon", seed=1, years=[2005])
        assert {r.year for r in recs} == {2005}
        assert len(recs) == get_family("xeon").years[2005].count

    def test_records_carry_family_topology(self, spec_archive):
        for r in spec_archive("opteron-4"):
            assert r.total_chips == 4
            assert r.total_cores == 4
            assert r.parallel

    def test_pentium_d_dual_core(self, spec_archive):
        for r in spec_archive("pentium-d"):
            assert r.cores_per_chip == 2

    def test_clock_options_respected(self, spec_archive):
        fam = get_family("opteron")
        for r in spec_archive("opteron"):
            assert r.processor_speed in fam.years[r.year].clocks

    def test_model_string_tracks_clock(self, spec_archive):
        recs = spec_archive("pentium-4")
        by_model = {}
        for r in recs:
            by_model.setdefault(r.processor_model, set()).add(r.processor_speed)
        # A model string maps to exactly one clock grade (collinearity).
        assert all(len(v) == 1 for v in by_model.values())

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            generate_family_records("itanium")


class TestPerformanceStructure:
    def test_clock_is_dominant_within_year(self, spec_archive):
        recs = [r for r in spec_archive("opteron") if r.year == 2005]
        fast = [r.specint_rate for r in recs if r.processor_speed == 2600]
        slow = [r.specint_rate for r in recs if r.processor_speed == 2400]
        assert np.mean(fast) > np.mean(slow)

    def test_next_year_exceeds_training_envelope(self, spec_archive):
        # The drift that breaks saturating NNs: 2006 contains systems faster
        # than anything announced in 2005.
        recs = spec_archive("opteron")
        top05 = max(r.specint_rate for r in recs if r.year == 2005)
        top06 = max(r.specint_rate for r in recs if r.year == 2006)
        assert top06 > top05

    def test_smp_rates_scale_with_ways(self, spec_archive):
        def mean_rate(fam):
            return np.mean([r.specint_rate for r in spec_archive(fam) if r.year == 2006])
        r1, r2, r4, r8 = (mean_rate(f) for f in
                          ("opteron", "opteron-2", "opteron-4", "opteron-8"))
        assert r1 < r2 < r4 < r8
        assert r8 < 8 * r1  # sublinear scaling

    def test_hd_parameters_carry_no_signal(self, spec_archive):
        recs = [r for r in spec_archive("xeon") if r.year == 2005]
        rates = np.array([r.specint_rate for r in recs])
        hd = np.array([r.hd_size for r in recs])
        assert abs(np.corrcoef(hd, rates)[0, 1]) < 0.3

    def test_fp_and_int_rates_differ(self, spec_archive):
        r = spec_archive("xeon")[0]
        assert r.specint_rate != r.specfp_rate


class TestGeneratorConfig:
    def test_zero_noise_is_deterministic_function(self, monkeypatch):
        monkeypatch.setattr(generator, "_SYSTEM_NOISE", 0.0)
        monkeypatch.setattr(ratings, "APP_NOISE", 0.0)
        recs = generate_family_records("pentium-d", seed=5)
        # Identical configurations must get identical ratings with no noise.
        by_key = {}
        for r in recs:
            key = (r.year, r.processor_speed, r.l2_size, r.memory_frequency,
                   r.bus_frequency, r.memory_size, r.smt, r.l1d_size,
                   r.l2_onchip, r.l1_per_core, r.l2_shared)
            by_key.setdefault(key, set()).add(round(r.specint_rate, 9))
        assert all(len(v) == 1 for v in by_key.values())


class TestGenerateAll:
    def test_all_seven_families(self):
        # Every family generates under a seed other than the suite's.
        assert len(FAMILIES) == 7
        for name, fam in FAMILIES.items():
            recs = generate_family_records(name, seed=2)
            assert len(recs) == sum(y.count for y in fam.years.values())
            assert {r.year for r in recs} == set(fam.years)
