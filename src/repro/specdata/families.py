"""Processor-family technology models for the announcement generator.

The paper analyzes seven per-family data sets: Intel Xeon, Pentium 4, and
Pentium D single-processor systems, plus AMD Opteron 1/2/4/8-way SMPs
(§4.1), reporting each set's record count, performance range, and
variation. Each :class:`ProcessorFamily` below describes a family's
announcement history: per-year clock/cache/memory technology options, the
number of announcements per year, and the micro-architecture coefficients
of the performance model.

The year spans and clock windows are calibrated so the generated sets
reproduce the paper's per-family profiles (e.g. Pentium 4's 3.72×
performance range comes from its long 2000-2006 history, while Opteron's
tight 1.40× range reflects its short, high-clock announcement window).
They are a statistical surrogate for the real SPEC archive, not a product
chronology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["YearTech", "ProcessorFamily", "FAMILIES", "get_family", "FAMILY_ORDER"]


@dataclass(frozen=True)
class YearTech:
    """Technology options available to announcements of one year."""

    count: int                      # announcements this year
    clocks: tuple[float, ...]       # MHz options
    buses: tuple[float, ...]        # MHz
    l2_totals: tuple[float, ...]    # KB (total on the chip)
    l3_totals: tuple[float, ...]    # KB (0 = none)
    memfreqs: tuple[float, ...]     # MHz
    memsizes: tuple[float, ...]     # GB

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        for name in ("clocks", "buses", "l2_totals", "memfreqs", "memsizes"):
            vals = getattr(self, name)
            if not vals or min(vals) <= 0:
                raise ValueError(f"{name} must be non-empty and positive")


@dataclass(frozen=True)
class ProcessorFamily:
    """A processor family's announcement-history model."""

    name: str                  # analysis key, e.g. "opteron-2"
    display: str               # marketing name used in model strings
    vendor: str
    n_chips: int
    cores_per_chip: int
    smt_available: bool
    arch_factor: float         # micro-architecture quality multiplier
    arch_growth: float         # per-year stepping improvement (fractional)
    scaling_eff: float         # SMP per-doubling efficiency at nominal memory
    l1i_kb: float
    l1d_options: tuple[float, ...]
    l1_per_core_prob: float    # P(L1 reported per core)
    l2_onchip_prob: float
    l2_shared_prob: float
    companies: tuple[str, ...]
    system_stems: tuple[str, ...]
    years: Mapping[int, YearTech]
    base_year: int = 2000      # arch_growth anchor

    def __post_init__(self) -> None:
        if self.n_chips < 1 or self.cores_per_chip < 1:
            raise ValueError("chip counts must be >= 1")
        if not self.years:
            raise ValueError(f"{self.name}: no years defined")

    @property
    def total_cores(self) -> int:
        return self.n_chips * self.cores_per_chip


_INTEL_COMPANIES = ("Dell", "HP", "IBM", "Fujitsu Siemens", "Supermicro", "Intel")
_AMD_COMPANIES = ("HP", "IBM", "Sun Microsystems", "Supermicro", "Tyan", "AMD")


def _xeon_years() -> dict[int, YearTech]:
    return {
        2004: YearTech(60, (3000, 3200, 3400), (800,),
                       (2048,), (0, 0, 2048), (333, 400), (2, 4, 8)),
        2005: YearTech(72, (3200, 3400, 3600), (800,),
                       (2048,), (0, 0, 2048), (400,), (4, 8, 16)),
        2006: YearTech(84, (3400, 3600, 3800), (800, 1066),
                       (2048,), (0, 2048), (400, 533), (4, 8, 16)),
    }


def _pentium4_years() -> dict[int, YearTech]:
    return {
        2000: YearTech(2, (1700,), (400,), (256,), (0,), (200,), (0.5, 1)),
        2001: YearTech(4, (1700, 1800, 2000), (400,), (256,), (0,), (200, 266), (0.5, 1)),
        2002: YearTech(6, (1800, 2000, 2260, 2530), (400, 533), (512,), (0,), (266,), (1, 2)),
        2003: YearTech(10, (2400, 2600, 2800, 3000, 3200), (533, 800), (512,), (0,), (266, 333), (1, 2)),
        2004: YearTech(12, (2800, 3000, 3200, 3400, 3600), (800,), (1024,), (0, 2048), (333, 400), (1, 2, 4)),
        2005: YearTech(16, (3000, 3200, 3400, 3600, 3800), (800,), (1024, 2048), (0, 2048), (400,), (2, 4)),
        2006: YearTech(16, (3200, 3400, 3600, 3800), (800, 1066), (2048,), (0, 2048), (400, 533), (2, 4)),
    }


def _pentium_d_years() -> dict[int, YearTech]:
    return {
        2005: YearTech(36, (2800, 3000, 3200), (533, 800),
                       (2048, 4096), (0,), (400, 533), (1, 2, 4)),
        2006: YearTech(35, (3000, 3200, 3400), (800,),
                       (2048, 4096), (0,), (533, 667), (2, 4, 8)),
    }


def _opteron_years() -> dict[int, YearTech]:
    # Short, high-clock announcement window -> the tight 1.40x range of §4.1.
    return {
        2003: YearTech(10, (2000, 2200), (800,), (1024,), (0,), (333,), (1, 2, 4)),
        2004: YearTech(25, (2200, 2400), (800, 1000), (1024,), (0,), (333,), (2, 4)),
        2005: YearTech(50, (2400, 2600), (1000,), (1024,), (0,), (333, 400), (2, 4, 8)),
        2006: YearTech(53, (2600, 2800), (1000,), (1024,), (0,), (400,), (4, 8, 16)),
    }


def _scale_counts(years: dict[int, YearTech], counts: dict[int, int]) -> dict[int, YearTech]:
    out = {}
    for year, tech in years.items():
        out[year] = YearTech(counts.get(year, tech.count), tech.clocks, tech.buses,
                             tech.l2_totals, tech.l3_totals, tech.memfreqs, tech.memsizes)
    return out


def _make_families() -> dict[str, ProcessorFamily]:
    families: dict[str, ProcessorFamily] = {}

    families["xeon"] = ProcessorFamily(
        name="xeon", display="Xeon", vendor="Intel",
        n_chips=1, cores_per_chip=1, smt_available=True,
        arch_factor=1.00, arch_growth=0.012, scaling_eff=0.90,
        l1i_kb=12.0, l1d_options=(16.0,), l1_per_core_prob=1.0,
        l2_onchip_prob=1.0, l2_shared_prob=0.0,
        companies=_INTEL_COMPANIES,
        system_stems=("PowerEdge 1850", "ProLiant ML370", "PRIMERGY RX300",
                      "eServer x346", "SuperServer 6014"),
        years=_xeon_years(),
    )

    families["pentium-4"] = ProcessorFamily(
        name="pentium-4", display="Pentium 4", vendor="Intel",
        n_chips=1, cores_per_chip=1, smt_available=True,
        arch_factor=0.97, arch_growth=0.012, scaling_eff=0.90,
        l1i_kb=12.0, l1d_options=(8.0, 16.0), l1_per_core_prob=1.0,
        l2_onchip_prob=1.0, l2_shared_prob=0.0,
        companies=_INTEL_COMPANIES,
        system_stems=("Dimension 8200", "Precision 340", "OptiPlex GX620",
                      "Evo W8000", "CELSIUS W360"),
        years=_pentium4_years(),
    )

    families["pentium-d"] = ProcessorFamily(
        name="pentium-d", display="Pentium D", vendor="Intel",
        n_chips=1, cores_per_chip=2, smt_available=False,
        arch_factor=1.00, arch_growth=0.010, scaling_eff=0.92,
        l1i_kb=12.0, l1d_options=(16.0, 32.0), l1_per_core_prob=0.7,
        l2_onchip_prob=1.0, l2_shared_prob=0.35,
        companies=_INTEL_COMPANIES,
        system_stems=("Dimension 9150", "OptiPlex GX620", "Precision 380",
                      "PRIMERGY Econel", "SuperServer 5015"),
        years=_pentium_d_years(),
    )

    opteron_years = _opteron_years()
    smp_counts = {
        "opteron": {2003: 10, 2004: 25, 2005: 50, 2006: 53},      # 138
        "opteron-2": {2003: 12, 2004: 28, 2005: 55, 2006: 57},    # 152
        "opteron-4": {2003: 12, 2004: 30, 2005: 57, 2006: 59},    # 158
        "opteron-8": {2003: 4, 2004: 10, 2005: 21, 2006: 23},     # 58
    }
    for n_chips, key in ((1, "opteron"), (2, "opteron-2"),
                         (4, "opteron-4"), (8, "opteron-8")):
        families[key] = ProcessorFamily(
            name=key,
            display="Opteron" if n_chips == 1 else f"Opteron {n_chips}",
            vendor="AMD",
            n_chips=n_chips, cores_per_chip=1, smt_available=False,
            arch_factor=1.12, arch_growth=0.010,
            scaling_eff=0.90,
            l1i_kb=64.0, l1d_options=(64.0,), l1_per_core_prob=1.0,
            l2_onchip_prob=0.85, l2_shared_prob=0.0,
            companies=_AMD_COMPANIES,
            system_stems=("ProLiant DL385", "eServer 326", "Sun Fire V40z",
                          "Thunder K8S", "SuperServer 8014"),
            years=_scale_counts(opteron_years, smp_counts[key]),
        )
    return families


#: All seven per-family data sets of the paper.
FAMILIES: dict[str, ProcessorFamily] = _make_families()

#: Presentation order used by Figures 7-8 and Table 2.
FAMILY_ORDER: tuple[str, ...] = (
    "xeon", "pentium-4", "pentium-d",
    "opteron", "opteron-2", "opteron-4", "opteron-8",
)


def get_family(name: str) -> ProcessorFamily:
    """Look up a family model by its analysis key."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; available: {sorted(FAMILIES)}") from None
