"""Synthetic SPEC announcement generator (the paper's SPEC-archive stand-in).

Generates, per processor family and year, announcement records with the
full 32-parameter schema and SPECint2000/SPECfp2000 rates computed through
the per-application machine model of :mod:`repro.specdata.ratings`. The
generator is deterministic given a seed and calibrated against the
per-family profiles reported in §4.1 (record counts, best/worst ranges,
variation) — see ``tests/specdata/test_spec_calibration.py``.

Structural properties deliberately engineered in (because the paper's
findings hinge on them):

* **processor speed dominates** — the largest single exponent, so both NN
  importance analysis and LR standardized betas rank it first (§4.4);
* **year-over-year drift** — 2006 clocks/memory exceed the 2005 envelope,
  so saturating-hidden-layer networks under-predict next year's systems
  while linear extrapolation succeeds (§4.3);
* **junk predictors** — hard-drive parameters and free-text fields carry
  no performance signal, giving the stepwise/backward LR methods something
  real to prune;
* **collinearity** — processor model strings encode the clock grade, and
  total cores = chips × cores/chip, exercising the rank-deficient paths of
  the LR machinery.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.specdata.families import ProcessorFamily, get_family
from repro.specdata.ratings import FP_APPS, INT_APPS, SystemPerformance, compute_app_ratios
from repro.specdata.schema import SystemRecord
from repro.util.rng import child_rng
from repro.util.stats import geometric_mean

__all__ = ["generate_family_records"]

_HD_TYPES = ("SCSI", "SATA", "SAS", "IDE")
_EXTRAS = ("none", "raid-controller", "extra-nic", "remote-mgmt")

#: System-level tuning noise (compiler flags, BIOS, memory timings), a
#: lognormal sigma applied to all apps of one announcement; per-app run
#: noise is :data:`repro.specdata.ratings.APP_NOISE`.
_SYSTEM_NOISE = 0.018


def _model_number(family: ProcessorFamily, clock: float) -> str:
    """Processor model string, a deterministic function of the clock grade."""
    if family.vendor == "AMD":
        grade = 140 + int(round((clock - 1400) / 200.0)) * 2 + 100 * int(np.log2(family.n_chips) if family.n_chips > 1 else 0)
        return f"{family.display.split()[0]} {grade}"
    return f"{family.display} {clock / 1000.0:.2f}GHz"


def _perf_features(
    family: ProcessorFamily,
    year: int,
    clock: float,
    l2_total: float,
    l3_total: float,
    memfreq: float,
    bus: float,
    memsize: float,
    l1d: float,
    l2_onchip: bool,
    smt: bool,
) -> SystemPerformance:
    """Map announcement parameters to the normalized performance features."""
    # Effective cache capacity per core: L2 plus a discounted L3 share.
    cores = family.total_cores
    eff_cache = (l2_total + 0.5 * l3_total) / max(family.cores_per_chip, 1)
    arch = family.arch_factor * (1.0 + family.arch_growth) ** (year - family.base_year)
    # Small secondary effects folded into the arch multiplier: L1 capacity
    # and on-chip L2 (both show up in the paper's §4.4 importance lists).
    arch *= (l1d / 16.0) ** 0.06
    if l2_onchip:
        arch *= 1.05
    return SystemPerformance(
        clock=clock / 2000.0,
        l2=eff_cache / 1024.0,
        memfreq=memfreq / 333.0,
        bus=bus / 800.0,
        memsize=memsize / 4.0,
        n_cores=cores,
        arch_factor=arch,
        smt=smt,
        scaling_eff=family.scaling_eff,
    )


def generate_family_records(
    family_name: str,
    seed: int = 0,
    years: Sequence[int] | None = None,
) -> list[SystemRecord]:
    """Generate one family's announcements for the given years (default all)."""
    family = get_family(family_name)
    records: list[SystemRecord] = []
    year_list = sorted(years) if years is not None else sorted(family.years)
    for year in year_list:
        if year not in family.years:
            continue
        tech = family.years[year]
        rng = child_rng(seed, "specgen", family.name, year)
        for k in range(tech.count):
            clock = float(rng.choice(tech.clocks))
            bus = float(rng.choice(tech.buses))
            l2_total = float(rng.choice(tech.l2_totals))
            l3_total = float(rng.choice(tech.l3_totals))
            memfreq = float(rng.choice(tech.memfreqs))
            memsize = float(rng.choice(tech.memsizes))
            l1d = float(rng.choice(family.l1d_options))
            l2_onchip = bool(rng.random() < family.l2_onchip_prob)
            l2_shared = bool(rng.random() < family.l2_shared_prob)
            l1_per_core = bool(rng.random() < family.l1_per_core_prob)
            smt = bool(family.smt_available and rng.random() < 0.7)
            company = str(rng.choice(family.companies))
            stem = str(rng.choice(family.system_stems))
            system_name = f"{stem} ({year % 100:02d}{rng.integers(10, 99)})"

            perf = _perf_features(
                family, year, clock, l2_total, l3_total, memfreq, bus,
                memsize, l1d, l2_onchip, smt,
            )
            tune = float(np.exp(rng.normal(0.0, _SYSTEM_NOISE)))
            int_ratios = {
                name: tune * v
                for name, v in compute_app_ratios(INT_APPS, perf, rng).items()
            }
            fp_ratios = {
                name: tune * v
                for name, v in compute_app_ratios(FP_APPS, perf, rng).items()
            }
            int_rate = geometric_mean(list(int_ratios.values()))
            fp_rate = geometric_mean(list(fp_ratios.values()))

            records.append(SystemRecord(
                family=family.name, year=year, quarter=int(rng.integers(1, 5)),
                company=company,
                system_name=system_name,
                processor_model=_model_number(family, clock),
                bus_frequency=bus,
                processor_speed=clock,
                fpu_integrated=True,
                total_cores=family.total_cores,
                total_chips=family.n_chips,
                cores_per_chip=family.cores_per_chip,
                smt=smt,
                parallel=family.total_cores > 1,
                l1i_size=family.l1i_kb,
                l1d_size=l1d,
                l1_per_core=l1_per_core,
                l2_size=l2_total,
                l2_onchip=l2_onchip,
                l2_shared=l2_shared,
                l2_unified=True,
                l3_size=l3_total,
                l3_onchip=bool(l3_total > 0 and rng.random() < 0.6),
                l3_per_core=False,
                l3_shared=bool(l3_total > 0),
                l3_unified=bool(l3_total > 0),
                l4_size=0.0,
                l4_shared_count=0,
                l4_onchip=False,
                memory_size=memsize,
                memory_frequency=memfreq,
                hd_size=float(rng.choice([36, 73, 146, 300])),
                hd_speed=float(rng.choice([7200, 10000, 15000])),
                hd_type=str(rng.choice(_HD_TYPES)),
                extra_components=str(rng.choice(_EXTRAS)),
                specint_rate=int_rate,
                specfp_rate=fp_rate,
                app_ratios=tuple({**int_ratios, **fp_ratios}.items()),
            ))
    return records
