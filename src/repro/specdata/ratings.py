"""SPEC CPU2000 rating computation (geometric mean of per-app ratios).

"SPEC CPU 2000 contains 12 integer applications, 14 floating-point
applications, and base runtimes for each of these applications. A
manufacturer runs a timed test on the system, and the time of the test
system is compared to the reference time, by which a ratio is computed.
The geometric mean of these ratios provides the SPEC ratings." (§4)

We reproduce exactly that aggregation: every synthetic system gets a
per-application throughput from a parametric machine model (clock, cache,
memory, SMP scaling sensitivities vary per application — mcf-like codes
lean on memory, crafty-like codes on clock), each throughput becomes a
reference-time ratio, and the published rating is the geometric mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


__all__ = ["SpecApp", "INT_APPS", "FP_APPS", "SystemPerformance", "compute_app_ratios"]


@dataclass(frozen=True)
class SpecApp:
    """One CPU2000 application and its machine-sensitivity exponents.

    The per-app speed model is log-linear:

    ``speed ∝ clock^clock_exp × l2^l2_exp × memfreq^mem_exp``

    with exponents summing lower for memory-bound codes (they scale
    sublinearly with clock). ``ref_time`` is the official reference runtime
    in seconds (public SPEC data).
    """

    name: str
    ref_time: float
    clock_exp: float
    l2_exp: float
    mem_exp: float

    def __post_init__(self) -> None:
        if self.ref_time <= 0:
            raise ValueError(f"{self.name}: ref_time must be positive")
        if not (0.0 <= self.clock_exp <= 1.2):
            raise ValueError(f"{self.name}: clock_exp out of range")


#: CPUint2000: 12 applications with official reference times.
INT_APPS: tuple[SpecApp, ...] = (
    SpecApp("164.gzip", 1400, 0.95, 0.10, 0.05),
    SpecApp("175.vpr", 1400, 0.85, 0.20, 0.12),
    SpecApp("176.gcc", 1100, 0.85, 0.25, 0.10),
    SpecApp("181.mcf", 1800, 0.55, 0.40, 0.35),
    SpecApp("186.crafty", 1000, 1.00, 0.08, 0.03),
    SpecApp("197.parser", 1800, 0.85, 0.18, 0.12),
    SpecApp("252.eon", 1300, 1.00, 0.06, 0.03),
    SpecApp("253.perlbmk", 1800, 0.95, 0.12, 0.05),
    SpecApp("254.gap", 1100, 0.90, 0.15, 0.10),
    SpecApp("255.vortex", 1900, 0.85, 0.25, 0.10),
    SpecApp("256.bzip2", 1500, 0.90, 0.12, 0.10),
    SpecApp("300.twolf", 3000, 0.80, 0.28, 0.10),
)

#: CPUfp2000: 14 applications.
FP_APPS: tuple[SpecApp, ...] = (
    SpecApp("168.wupwise", 1600, 0.90, 0.12, 0.12),
    SpecApp("171.swim", 3100, 0.55, 0.15, 0.45),
    SpecApp("172.mgrid", 1800, 0.70, 0.18, 0.25),
    SpecApp("173.applu", 2100, 0.75, 0.15, 0.22),
    SpecApp("177.mesa", 1400, 0.95, 0.10, 0.05),
    SpecApp("178.galgel", 2900, 0.75, 0.22, 0.18),
    SpecApp("179.art", 2600, 0.60, 0.40, 0.25),
    SpecApp("183.equake", 1300, 0.65, 0.22, 0.30),
    SpecApp("187.facerec", 1900, 0.80, 0.18, 0.15),
    SpecApp("188.ammp", 2200, 0.75, 0.25, 0.15),
    SpecApp("189.lucas", 2000, 0.70, 0.15, 0.28),
    SpecApp("191.fma3d", 2100, 0.80, 0.18, 0.15),
    SpecApp("200.sixtrack", 1100, 0.95, 0.15, 0.04),
    SpecApp("301.apsi", 2600, 0.80, 0.18, 0.15),
)

assert len(INT_APPS) == 12 and len(FP_APPS) == 14


@dataclass(frozen=True)
class SystemPerformance:
    """Normalized machine features feeding the per-app speed model.

    All features are ratios to a reference machine so exponents compose
    cleanly: e.g. ``clock = processor MHz / 2000``.
    """

    clock: float          # vs 2.0 GHz
    l2: float             # effective per-core L2+L3 capacity vs 1 MB
    memfreq: float        # vs 333 MHz
    bus: float            # vs 800 MHz
    memsize: float        # vs 4 GB
    n_cores: int          # copies run for the rate metric
    arch_factor: float    # family micro-architecture quality multiplier
    smt: bool
    bus_exp: float = 0.05
    memsize_exp: float = 0.03
    smt_gain: float = 0.08
    scaling_eff: float = 0.90  # per-doubling SMP efficiency at nominal memfreq

    def __post_init__(self) -> None:
        if min(self.clock, self.l2, self.memfreq, self.bus, self.memsize) <= 0:
            raise ValueError("feature ratios must be positive")
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if not (0.5 <= self.scaling_eff <= 1.0):
            raise ValueError("scaling_eff must be in [0.5, 1]")


def _app_speed(app: SpecApp, perf: SystemPerformance) -> float:
    """Single-copy relative speed of one application on the machine."""
    speed = (
        perf.arch_factor
        * perf.clock ** app.clock_exp
        * perf.l2 ** app.l2_exp
        * perf.memfreq ** app.mem_exp
        * perf.bus ** perf.bus_exp
        * perf.memsize ** perf.memsize_exp
    )
    if perf.smt:
        speed *= 1.0 + perf.smt_gain
    return speed


def _rate_scaling(app: SpecApp, perf: SystemPerformance) -> float:
    """Throughput multiplier for running ``n_cores`` copies.

    Memory-bound applications scale worse (shared memory contention), and
    faster memory recovers part of the loss — which is what makes memory
    frequency increasingly important for the larger Opteron SMPs (§4.4).
    """
    n = perf.n_cores
    if n == 1:
        return 1.0
    doublings = np.log2(n)
    # Per-doubling efficiency degrades with the app's memory appetite and
    # improves with memory headroom.
    eff = perf.scaling_eff - 0.25 * app.mem_exp / max(perf.memfreq, 0.25)
    eff = float(np.clip(eff, 0.55, 1.0))
    return n * eff ** doublings


#: Per-app run-to-run noise, the lognormal sigma applied to each ratio.
APP_NOISE = 0.02
#: Anchors the absolute rating level: a 2 GHz reference machine rates ~10.
RATE_SCALE = 10.0


def compute_app_ratios(
    apps: tuple[SpecApp, ...],
    perf: SystemPerformance,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Per-application throughput ratios (what a full announcement lists).

    With an ``rng``, each ratio carries :data:`APP_NOISE` (lognormal,
    applied per app); the SPEC rate is their geometric mean.
    """
    ratios: dict[str, float] = {}
    for app in apps:
        ratio = RATE_SCALE * _app_speed(app, perf) * _rate_scaling(app, perf)
        if rng is not None:
            ratio *= float(np.exp(rng.normal(0.0, APP_NOISE)))
        ratios[app.name] = ratio
    return ratios
