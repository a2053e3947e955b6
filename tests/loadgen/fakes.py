"""Deterministic stand-ins for time and for the service under load.

The runner tests need the whole run — arrivals, service times, completion
order, every latency sample — to be a pure function of the seed. Wall
clocks cannot deliver that, so :func:`repro.loadgen.run_requests` accepts
an injectable ``clock``/``sleep`` pair and this module provides the
deterministic implementations:

* :class:`VirtualClock` — a callable clock whose ``sleep`` *is* the passage
  of time. Under it the runner's poll loop advances in exact, repeatable
  steps.
* :class:`SimTarget` — a service model honouring the runner's target
  protocol (``issue``/``completed``): content-fingerprint dedup like the
  real spool, seeded per-job service times, optional admission shedding
  (in-flight bound, mirroring ``max_depth``) and every-Nth-job failure
  injection. It also tracks ``max_in_flight`` so open-loop overlap claims
  are assertable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.cache.fingerprint import stable_fingerprint
from repro.errors import ServiceOverloadError
from repro.service.jobs import JobSpec, job_id

__all__ = ["VirtualClock", "SimTarget"]


class VirtualClock:
    """A clock that only moves when someone sleeps on it."""

    def __init__(self, t0: float = 0.0) -> None:
        self.t = float(t0)

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += max(0.0, float(seconds))


@dataclass
class SimTarget:
    """In-memory service model implementing the load-runner target protocol.

    Service time for a job is drawn once, from a per-spec seeded stream
    (``random.Random(f"{seed}/{stable_fingerprint(spec)}")``), uniform in
    ``[base_latency, base_latency + jitter]`` — so the same trace against
    the same seed completes on the identical schedule. The seed leaves out
    the simulator code version that :func:`~repro.service.jobs.job_id`
    carries, so editing the simulator does not move the schedule.
    Duplicate specs share one in-flight execution and one completion,
    exactly like the spool's fingerprint dedup.
    """

    clock: Callable[[], float]
    seed: int = 0
    base_latency: float = 0.05
    jitter: float = 0.05
    #: Admission bound on distinct in-flight jobs; None = never shed.
    max_in_flight_allowed: int | None = None
    #: Every Nth distinct job fails (typed like a worker fail); 0 = never.
    fail_every: int = 0

    _inflight: dict[str, float] = field(default_factory=dict)
    _done: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    n_issued: int = 0
    n_deduped: int = 0
    n_shed: int = 0
    max_in_flight: int = 0

    def service_time(self, spec: JobSpec) -> float:
        rng = random.Random(f"{self.seed}/{stable_fingerprint(spec)}")
        return self.base_latency + rng.random() * self.jitter

    def issue(self, spec: JobSpec) -> str:
        """Admit one job; returns its token (the content-fingerprint id).

        Raises :class:`~repro.errors.ServiceOverloadError` when the
        in-flight bound is hit — the shed path the runner must survive.
        """
        token = job_id(spec)
        if token in self._inflight or token in self._done:
            self.n_deduped += 1
            return token
        bound = self.max_in_flight_allowed
        if bound is not None and len(self._inflight) >= bound:
            self.n_shed += 1
            raise ServiceOverloadError(
                f"sim queue at its bound {bound}; job rejected",
                depth=len(self._inflight), max_depth=bound)
        self.n_issued += 1
        self._inflight[token] = self.clock() + self.service_time(spec)
        self.max_in_flight = max(self.max_in_flight, len(self._inflight))
        return token

    def completed(self, tokens: list[str]) -> dict[str, tuple[str, str | None]]:
        """Terminal outcomes among ``tokens``: token -> (state, error_type)."""
        now = self.clock()
        for token, done_at in list(self._inflight.items()):
            if done_at <= now:
                del self._inflight[token]
                # Failure injection counts *completed* jobs so the choice is
                # a pure function of completion order, not poll timing.
                nth = len(self._done) + 1
                if self.fail_every and nth % self.fail_every == 0:
                    self._done[token] = ("failed", "InjectedFault")
                else:
                    self._done[token] = ("done", None)
        return {t: self._done[t] for t in tokens if t in self._done}
