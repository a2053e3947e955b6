"""Job vocabulary of the sweep/prediction service.

A job is a *pure, deterministic* unit of work described entirely by its
:class:`JobSpec` — which application, which slice of the design space,
which model — so that two submissions of the same spec are the same job.
:func:`job_id` turns a spec into a content fingerprint (reusing
:func:`repro.cache.fingerprint.stable_fingerprint`, salted with the
simulator :func:`~repro.cache.fingerprint.code_version`): the id doubles as
the idempotency key for the spool and the result store. Resubmitting a
finished job returns its cached result; re-dispatching a crashed job
recomputes it bit-identically; two tenants submitting identical sweeps
share one execution.

Job kinds:

* ``"sweep"`` — simulate configurations ``[start, stop)`` of the Table-1
  design space for one application; result is the float64 cycle vector.
* ``"fit"`` — the sampled-DSE unit: sample the design space at ``rate``,
  train ``model`` (through the degradation ladder when ``robust``), score
  true error over the full space; result is the per-model error summary
  plus the deployed label.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.cache.fingerprint import code_version, stable_fingerprint

__all__ = ["JOB_KINDS", "JOB_STATES", "JobSpec", "JobView", "job_id"]

#: Schema tag mixed into every job fingerprint (bump on breaking changes).
JOB_SCHEMA = "repro-job/1"

JOB_KINDS = ("sweep", "fit")

#: Lifecycle states a folded spool assigns (see ``spool.JobSpool.jobs``).
JOB_STATES = ("pending", "running", "done", "failed")


@dataclass(frozen=True)
class JobSpec:
    """Complete, deterministic description of one unit of service work."""

    kind: str                          # "sweep" | "fit"
    app: str                           # SPEC2000 profile name
    start: int = 0                     # design-space slice [start, stop)
    stop: int | None = None            # None: to the end of the space
    n_instructions: int = 100_000_000
    # fit-only parameters (ignored by sweep jobs, but always fingerprinted
    # so a spec's identity never depends on its kind's reading of it):
    model: str = "LR-E"
    rate: float = 0.05
    seed: int = 0
    robust: bool = False

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {self.kind!r}")
        if self.start < 0 or (self.stop is not None and self.stop < self.start):
            raise ValueError(
                f"bad design-space slice [{self.start}, {self.stop})")
        if self.kind == "fit" and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def summary(self) -> str:
        if self.kind == "sweep":
            stop = "end" if self.stop is None else self.stop
            return f"sweep {self.app} [{self.start}:{stop}]"
        return (f"fit {self.model} on {self.app} @ rate={self.rate:g} "
                f"seed={self.seed}{' robust' if self.robust else ''}")


def job_id(spec: JobSpec) -> str:
    """Content-fingerprint idempotency key of a job.

    Includes the simulator code version, so a code change makes every job
    (and therefore every cached result) a new identity —
    stale results from older physics can never be served as current.
    """
    return stable_fingerprint((JOB_SCHEMA, code_version(), spec))[:32]


@dataclass(frozen=True)
class JobView:
    """One job's folded state, as read from the spool event log."""

    id: str
    spec: JobSpec
    state: str                 # one of JOB_STATES
    submitted_t: float         # wall-clock submission time
    deadline_s: float | None = None
    worker: str | None = None  # current/last lease holder
    lease_expires: float | None = None
    n_leases: int = 0          # dispatch attempts (re-dispatches included)
    n_expired: int = 0         # leases that ran out before completion
    error_type: str | None = None
    message: str | None = None
    elapsed: float | None = None
    #: Cross-process trace correlation key, stamped at submission (equal to
    #: the job id by construction; carried explicitly so every consumer —
    #: worker spans, merged timelines — reads it rather than re-deriving it).
    trace_id: str | None = None

    def summary(self) -> str:
        tail = ""
        if self.state == "failed":
            tail = f" ({self.error_type}: {self.message})"
        elif self.state == "running":
            tail = f" (worker {self.worker}, lease {self.n_leases})"
        return f"{self.id[:12]} {self.spec.summary()} [{self.state}]{tail}"
