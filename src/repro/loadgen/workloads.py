"""Seeded client traffic and pacing for the load harness.

A *workload* answers two independent questions about client traffic, and
this module keeps them separate on purpose (the ``Workload``/``ReqGenEngine``
split from real KV-store load drivers):

* **What** is requested — a deterministic sequence of catalog key indices
  with a ``static`` hot set: most requests repeat a few keys, which is what
  exercises the service's dedup and result-reuse layer.
* **When** it arrives — ``open``-loop pacing: Poisson arrivals at a target
  rate; clients do not wait for each other, and the queue absorbs bursts.

Everything is a pure function of ``WorkloadSpec.seed`` via per-stream
``random.Random`` instances — no global state — so the same spec always
yields the same request list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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

#: Workload shape names. The name also keys the seeded rng streams, so it
#: stays part of the spec even with one shape.
WORKLOAD_SHAPES = ("static",)

#: Arrival disciplines the pacer understands.
PACING_MODES = ("open",)


@dataclass(frozen=True)
class Request:
    """One planned client request: what to submit and when.

    ``t_offset`` is the planned arrival in seconds from run start, on the
    open-loop pacer's Poisson schedule.
    """

    i: int
    key: str
    t_offset: float
    spec: JobSpec


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete, deterministic description of one request stream."""

    workload: str = "static"
    pacing: str = "open"
    n_requests: int = 100
    n_keys: int = 20
    seed: int = 0
    #: Open-loop mean arrival rate (requests/second of *planned* time).
    rate: float = 8.0
    #: Fraction of the key space that is hot.
    hot_fraction: float = 0.2
    #: Probability a request draws from the hot set.
    hot_weight: float = 0.8

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
        if not 0.0 < self.hot_fraction < 1.0:
            raise ValueError(
                f"hot_fraction must be in (0, 1), got {self.hot_fraction}")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError(
                f"hot_weight must be in [0, 1], got {self.hot_weight}")


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

    # -- keys ----------------------------------------------------------------

    def key_indices(self) -> list[int]:
        """The static hot-set key index sequence (pure function of the seed)."""
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

    # -- pacing --------------------------------------------------------------

    def arrival_offsets(self) -> list[float]:
        """Planned arrival offsets (seconds from run start), non-decreasing.

        Exponential inter-arrival gaps: a Poisson process at ``rate``.
        """
        wl = self.wl
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
