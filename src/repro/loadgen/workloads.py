"""Seeded synthetic traffic shapes and pacing for the load harness.

A *workload* answers two independent questions about client traffic, and
this module keeps them separate on purpose (the ``Workload``/``ReqGenEngine``
split from real KV-store load drivers):

* **What** is requested — a deterministic sequence of catalog key indices
  shaped like real traffic: a stable ``static`` hot set, a ``phase_shift``
  hot set that relocates wholesale, an ``oscillating`` (diurnal) pair of
  working sets, and a ``scan`` that sweeps a long cold region through a
  small hot set. These mirror the synthetic key streams the eviction
  oracle replays, because the service's result/dedup layer *is* a cache
  and should be hammered with the same adversaries.
* **When** it arrives — ``open``-loop pacing (Poisson arrivals at a target
  rate: clients do not wait for each other, the queue absorbs bursts) or
  ``closed``-loop pacing (a fixed concurrency window: each virtual client
  issues its next request only after its previous one completes — the
  runner enforces the window; offsets are all zero).

Everything is a pure function of ``WorkloadSpec.seed`` via per-stream
``random.Random`` instances — no global state — so the same spec always
yields the same request list, which is what makes the emitted
``repro-reqtrace/1`` traces bit-identically replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.service.jobs import JobSpec

__all__ = [
    "PACING_MODES",
    "WORKLOAD_SHAPES",
    "Request",
    "ReqGenEngine",
    "SpecCatalog",
    "WorkloadSpec",
    "build_requests",
]

#: Workload shape names, in reporting order.
WORKLOAD_SHAPES = ("static", "phase_shift", "oscillating", "scan")

#: Arrival disciplines the pacer understands.
PACING_MODES = ("open", "closed")


@dataclass(frozen=True)
class Request:
    """One planned client request: what to submit and when.

    ``t_offset`` is the planned arrival in seconds from run start — the
    open-loop pacer's Poisson schedule, or ``0.0`` under closed-loop pacing
    (arrival is "as soon as the concurrency window opens"). It is part of
    the recorded trace, so a replay re-issues the identical schedule
    instead of re-rolling it.
    """

    i: int
    key: str
    t_offset: float
    spec: JobSpec


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete, deterministic description of one traffic shape."""

    workload: str = "static"
    pacing: str = "closed"
    n_requests: int = 100
    n_keys: int = 20
    seed: int = 0
    #: Open-loop mean arrival rate (requests/second of *planned* time).
    rate: float = 8.0
    #: Closed-loop in-flight window (virtual client count).
    concurrency: int = 4
    #: Fraction of the key space that is hot (static/scan shapes).
    hot_fraction: float = 0.2
    #: Probability a request draws from the hot set (static/phase_shift/scan).
    hot_weight: float = 0.8
    #: phase_shift: number of equal-length phases over the run.
    n_phases: int = 4
    #: oscillating: requests per half-cycle before the working set flips.
    period: int = 25

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_SHAPES:
            raise ValueError(
                f"workload must be one of {WORKLOAD_SHAPES}, got {self.workload!r}")
        if self.pacing not in PACING_MODES:
            raise ValueError(
                f"pacing must be one of {PACING_MODES}, got {self.pacing!r}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.n_keys < 2:
            raise ValueError(f"n_keys must be >= 2, got {self.n_keys}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if not 0.0 < self.hot_fraction < 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1), got {self.hot_fraction}")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError(
                f"hot_weight must be in [0, 1], got {self.hot_weight}")
        if self.n_phases < 1:
            raise ValueError(f"n_phases must be >= 1, got {self.n_phases}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def as_dict(self) -> dict[str, Any]:
        import dataclasses

        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "WorkloadSpec":
        import dataclasses

        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass(frozen=True)
class SpecCatalog:
    """Deterministic key index -> :class:`JobSpec` mapping.

    Keys cycle through applications and walk disjoint design-space slices,
    so distinct key indices are distinct jobs (distinct content
    fingerprints) while a repeated index is *the same* job — which is
    exactly what exercises the service's dedup/result-reuse layer the way
    a hot set exercises a cache. Slices wrap inside ``space_size`` so every
    generated job simulates real configurations.
    """

    apps: tuple[str, ...] = ("gcc", "mcf", "gzip", "art", "swim")
    slice_len: int = 8
    n_instructions: int = 1_000_000
    space_size: int = 4608

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("catalog needs at least one app")
        if self.slice_len < 1:
            raise ValueError(f"slice_len must be >= 1, got {self.slice_len}")
        if self.space_size <= self.slice_len:
            raise ValueError("space_size must exceed slice_len")

    @staticmethod
    def key(index: int) -> str:
        return f"k{index:06d}"

    def spec(self, index: int) -> JobSpec:
        app = self.apps[index % len(self.apps)]
        block = index // len(self.apps)
        start = (block * self.slice_len) % (self.space_size - self.slice_len)
        return JobSpec(kind="sweep", app=app, start=start,
                       stop=start + self.slice_len,
                       n_instructions=self.n_instructions)


@dataclass
class ReqGenEngine:
    """Turns a :class:`WorkloadSpec` into a concrete request list."""

    wl: WorkloadSpec
    catalog: SpecCatalog = field(default_factory=SpecCatalog)

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.wl.seed}/{self.wl.workload}/{stream}")

    # -- key shapes ----------------------------------------------------------

    def key_indices(self) -> list[int]:
        """The workload's key index sequence (pure function of the seed)."""
        return getattr(self, f"_{self.wl.workload}")()

    def _static(self) -> list[int]:
        wl = self.wl
        rng = self._rng("keys")
        n_hot = max(1, int(wl.n_keys * wl.hot_fraction))
        out = []
        for _ in range(wl.n_requests):
            if rng.random() < wl.hot_weight:
                out.append(rng.randrange(n_hot))
            else:
                out.append(n_hot + rng.randrange(wl.n_keys - n_hot))
        return out

    def phase_boundaries(self) -> list[int]:
        """Request indices where each phase_shift phase begins."""
        per_phase = self.wl.n_requests // self.wl.n_phases
        return [p * per_phase for p in range(self.wl.n_phases)]

    def phase_window(self, phase: int) -> tuple[int, int]:
        """Half-open key index window ``[lo, hi)`` hot during ``phase``."""
        wl = self.wl
        width = max(1, wl.n_keys // wl.n_phases)
        lo = (phase * width) % wl.n_keys
        return lo, lo + width

    def _phase_shift(self) -> list[int]:
        wl = self.wl
        rng = self._rng("keys")
        per_phase = wl.n_requests // wl.n_phases
        out = []
        for i in range(wl.n_requests):
            phase = min(i // per_phase, wl.n_phases - 1) if per_phase else \
                wl.n_phases - 1
            lo, hi = self.phase_window(phase)
            if rng.random() < wl.hot_weight:
                out.append(lo + rng.randrange(hi - lo))
            else:
                out.append(rng.randrange(wl.n_keys))
        return out

    def _oscillating(self) -> list[int]:
        wl = self.wl
        rng = self._rng("keys")
        half = max(1, wl.n_keys // 2)
        out = []
        for i in range(wl.n_requests):
            base = 0 if (i // wl.period) % 2 == 0 else half
            out.append(base + rng.randrange(half))
        return out

    def _scan(self) -> list[int]:
        wl = self.wl
        rng = self._rng("keys")
        n_hot = max(1, int(wl.n_keys * wl.hot_fraction))
        scan_len = max(1, wl.n_keys - n_hot)
        out = []
        cursor = 0
        for _ in range(wl.n_requests):
            if rng.random() < wl.hot_weight:
                out.append(rng.randrange(n_hot))
            else:
                out.append(n_hot + cursor)
                cursor = (cursor + 1) % scan_len
        return out

    # -- pacing --------------------------------------------------------------

    def arrival_offsets(self) -> list[float]:
        """Planned arrival offsets (seconds from run start), non-decreasing.

        Open loop draws exponential inter-arrival gaps (a Poisson process
        at ``rate``); closed loop plans every arrival at ``0.0`` — the
        runner's concurrency window is the clock there.
        """
        wl = self.wl
        if wl.pacing == "closed":
            return [0.0] * wl.n_requests
        rng = self._rng("arrivals")
        t = 0.0
        out = []
        for _ in range(wl.n_requests):
            out.append(t)
            t += rng.expovariate(wl.rate)
        return out

    # -- assembly ------------------------------------------------------------

    def generate(self) -> list[Request]:
        """The full deterministic request stream for this spec."""
        indices = self.key_indices()
        offsets = self.arrival_offsets()
        return [
            Request(i=i, key=self.catalog.key(k), t_offset=offsets[i],
                    spec=self.catalog.spec(k))
            for i, k in enumerate(indices)
        ]


def build_requests(wl: WorkloadSpec,
                   catalog: SpecCatalog | None = None) -> list[Request]:
    """One-call convenience: spec -> deterministic request list."""
    engine = ReqGenEngine(wl, catalog if catalog is not None else SpecCatalog())
    return engine.generate()
