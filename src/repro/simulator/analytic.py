"""Closed-form cache / TLB / branch-predictor behaviour from workload profiles.

This is the *fast path* used for full design-space sweeps: instead of
replaying a concrete address stream through a cache model 4608 times, miss
rates are evaluated directly from the workload's reuse-distance mixture.

Theory
------
For an LRU cache, a reference with *stack distance* ``d`` (distinct blocks
touched since the previous reference to the same block) hits a
fully-associative cache of ``C`` blocks iff ``d < C`` (Mattson et al.).
For a set-associative cache with ``S`` sets and associativity ``A``, under
the standard random-set-mapping assumption (Smith; Hill & Smith), the same
reference hits iff at most ``A - 1`` of those ``d`` blocks landed in its
set:

    P(hit | d) = BinomCDF(A - 1; d, 1/S)

We integrate this over the profile's lognormal reuse mixture by Gauss-type
quantile discretization. Line size enters twice: sequential-spatial
references hit inside the line of their predecessor with probability
``1 - 32/L``, and temporal distances compact as ``d * (32/L)**fexp``
(footprints measured in coarser blocks contain fewer distinct blocks).

Branch predictors are evaluated per branch class (biased / patterned /
random) with per-predictor capture rates; these constants are validated
against the table-based predictor simulations in
:mod:`repro.simulator.branch` by the test suite.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special as spsp

from repro.simulator.workloads import BLOCK, PAGE, BranchBehavior, MemoryBehavior

__all__ = [
    "component_survival",
    "fully_associative_miss",
    "set_associative_hit_given_distance",
    "miss_rate",
    "tlb_miss_rate",
    "mispredict_rate",
    "PREDICTORS",
]

_N_QUANTILES = 96  # discretization of each lognormal component


@lru_cache(maxsize=None)
def _normal_grid(n: int) -> np.ndarray:
    """Standard-normal quantiles at the midpoint levels ``(i + 0.5) / n``.

    Cached and read-only: the grid is identical for every component.
    ``scipy.stats.norm.ppf(q)`` evaluates ``ndtri(q) * 1.0 + 0.0`` for
    ``0 < q < 1``; calling the ufunc directly gives the same bits without
    importing ``scipy.stats`` or paying its argument handling per call.
    """
    z = spsp.ndtri((np.arange(n) + 0.5) / n)
    z.flags.writeable = False
    return z


def _component_distances(median: float, sigma: float, n: int = _N_QUANTILES) -> np.ndarray:
    """Representative reuse distances (quantile midpoints) of a component."""
    return median * np.exp(sigma * _normal_grid(n))


def component_survival(median: float, sigma: float, capacity_blocks: float) -> float:
    """P(reuse distance >= capacity) for one lognormal component."""
    if capacity_blocks <= 0:
        return 1.0
    z = (np.log(capacity_blocks) - np.log(median)) / sigma
    # The standard-normal survival ``norm.sf(z)``, which reaches
    # ``ndtr(-z)`` after its identity loc/scale and support masks.
    return float(spsp.ndtr(-z))


def set_associative_hit_given_distance(
    distances: np.ndarray, n_sets: int, assoc: int, structured: float = 0.0
) -> np.ndarray:
    """P(hit | stack distance d) for an (S sets, A ways) LRU cache.

    ``structured`` in [0, 1] is the fraction of the working set laid out
    contiguously: contiguous data spreads round-robin across sets
    (conflict-free up to full capacity), while irregular (heap / pointer)
    data maps effectively at random, suffering binomial set conflicts
    (Smith; Hill & Smith). Fully-associative caches (``n_sets == 1``)
    reduce to ``d <= A - 1``.
    """
    d = np.asarray(distances, dtype=np.float64)
    if n_sets <= 0 or assoc <= 0:
        raise ValueError("n_sets and assoc must be positive")
    if not (0.0 <= structured <= 1.0):
        raise ValueError(f"structured must be in [0,1], got {structured}")
    capacity_hit = (d <= n_sets * assoc - 1).astype(np.float64)
    if n_sets == 1:
        return (d <= assoc - 1).astype(np.float64)
    # Binomial CDF with real-valued n via the regularized incomplete beta:
    # P(X <= k) = I_{1-p}(n - k, k + 1). For d <= A-1 a hit is certain.
    k = assoc - 1
    p = 1.0 / n_sets
    random_hit = np.ones_like(d)
    tail = d > k
    if np.any(tail):
        dt = d[tail]
        random_hit[tail] = spsp.betainc(dt - k, k + 1.0, 1.0 - p)
    return structured * capacity_hit + (1.0 - structured) * random_hit


def miss_rate(
    mem: MemoryBehavior,
    size_bytes: int,
    line_bytes: int,
    assoc: int,
) -> float:
    """Miss rate of one reference stream in a set-associative LRU cache.

    Parameters
    ----------
    mem:
        The stream's locality model.
    size_bytes, line_bytes, assoc:
        Cache geometry. ``size_bytes == 0`` means "no cache" (miss rate 1).
    """
    if size_bytes == 0:
        return 1.0
    if size_bytes < line_bytes or line_bytes < BLOCK:
        raise ValueError(
            f"invalid geometry: size={size_bytes}, line={line_bytes} (min {BLOCK})"
        )
    n_blocks = size_bytes // line_bytes
    if assoc > n_blocks:
        raise ValueError(f"assoc {assoc} exceeds {n_blocks} blocks")
    n_sets = n_blocks // assoc
    if n_sets * assoc != n_blocks:
        raise ValueError("size/line/assoc do not tile into whole sets")

    scale = BLOCK / line_bytes  # < 1 for lines coarser than 32 B
    compact = scale ** mem.footprint_exponent

    # Spatial hits: sequential references land in the predecessor's line.
    p_spatial_hit = mem.spatial_seq * (1.0 - scale)

    # Temporal component: distances compact at coarser granularity.
    miss_mass = mem.compulsory * compact  # cold misses per coarse block
    hit_mass = 0.0
    for comp in mem.components:
        d = _component_distances(comp.median_blocks * compact, comp.sigma)
        p_hit = set_associative_hit_given_distance(
            d, n_sets, assoc, structured=mem.spatial_seq
        ).mean()
        hit_mass += comp.weight * p_hit
        miss_mass += comp.weight * (1.0 - p_hit)
    # Streaming references (mixture remainder) never re-reference: they miss
    # at 32-B granularity but are amortized by the line like cold misses.
    stream = max(0.0, 1.0 - mem.reuse_weight - mem.compulsory)
    miss_mass += stream * compact

    temporal_miss = miss_mass  # per original (32-B-granularity) reference
    rate = (1.0 - p_spatial_hit) * temporal_miss
    return float(np.clip(rate, 0.0, 1.0))


def tlb_miss_rate(mem: MemoryBehavior, reach_bytes: int) -> float:
    """Miss rate of a fully-associative LRU TLB with the given reach.

    Table 1 specifies TLB sizes as mapped capacity (e.g. 512 KB); entries
    = reach / 4 KB pages.
    """
    if reach_bytes <= 0:
        raise ValueError(f"reach_bytes must be positive, got {reach_bytes}")
    entries = max(1, reach_bytes // PAGE)
    return float(
        np.clip(component_survival(mem.page_median, mem.page_sigma, entries), 0.0, 1.0)
    )


# ---------------------------------------------------------------------------
# Branch predictors
# ---------------------------------------------------------------------------

#: Predictor names accepted by the design space (Table 1).
PREDICTORS: tuple[str, ...] = ("perfect", "bimodal", "2level", "combining")

# Per-class capture behaviour. A 2-bit bimodal counter tracks a branch's
# dominant direction: it mispredicts the minority direction plus a small
# hysteresis overhead, and cannot learn alternating patterns. A two-level
# predictor with per-branch histories (PAg-style) learns short
# deterministic patterns almost perfectly and biased branches slightly
# better, but neither helps truly data-dependent branches. The combining predictor takes the better
# component per branch with a small chooser overhead. Constants validated
# against repro.simulator.branch table simulations.
_PATTERN_MISS = {"bimodal": 0.32, "2level": 0.035, "combining": 0.030}
_RANDOM_MISS = {"bimodal": 0.50, "2level": 0.50, "combining": 0.49}
_BIAS_OVERHEAD = {"bimodal": 1.15, "2level": 1.08, "combining": 1.02}


def mispredict_rate(branches: BranchBehavior, predictor: str) -> float:
    """Expected misprediction rate of a predictor on this branch population."""
    if predictor not in PREDICTORS:
        raise ValueError(f"predictor must be one of {PREDICTORS}, got {predictor!r}")
    if predictor == "perfect":
        return 0.0
    minority = 1.0 - branches.bias
    biased_miss = min(0.5, minority * _BIAS_OVERHEAD[predictor])
    rate = (
        branches.frac_biased * biased_miss
        + branches.frac_pattern * _PATTERN_MISS[predictor]
        + branches.frac_random * _RANDOM_MISS[predictor]
    )
    return float(np.clip(rate, 0.0, 0.5))
