"""The load runner: pace a request stream into a target, record outcomes.

The runner is deliberately ignorant of *what* it is hammering. A target is
anything with two methods:

``issue(spec) -> token``
    Admit one job; return an opaque completion token (the service uses the
    content-fingerprint job id, so duplicate specs share a token — dedup
    is the target's business, not the runner's). Raising
    :class:`~repro.errors.ServiceOverloadError` means the request was
    *shed*: the runner records the outcome and moves on, because load
    shedding under overload is service behaviour worth measuring, not a
    harness failure.

``completed(tokens) -> {token: (state, error_type)}``
    Non-blocking poll: which of these tokens are terminal right now?
    ``state`` is ``"done"`` or ``"failed"``.

:class:`ServiceTarget` (a live or daemonless spool) is the target that
ships; the tests drive the same loop against a deterministic service
model. Pacing is open loop: a request is issued once its planned
``t_offset`` has passed, however many requests are still in flight.

Time is injectable (``clock``/``sleep``) so the identical code path runs
against the wall clock in benchmarks and against a virtual clock in
deterministic tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ServiceOverloadError
from repro.service.jobs import JobSpec
from repro.service.spool import JobSpool
from repro.loadgen.workloads import Request

__all__ = [
    "OUTCOMES",
    "LoadResult",
    "RequestOutcome",
    "ServiceTarget",
    "run_requests",
]

#: Terminal request outcomes, in reporting order.
OUTCOMES = ("done", "failed", "shed", "timeout")


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one planned request, in run-relative time."""

    i: int                    # the request's index in its stream
    key: str
    token: str | None         # completion token; None when shed
    outcome: str              # one of OUTCOMES
    error_type: str | None
    t_issue: float            # seconds from run start at issue (or shed)
    latency: float | None     # issue -> observed completion; None if not done/failed


@dataclass
class LoadResult:
    """One run's outcomes plus its wall-clock envelope."""

    outcomes: list[RequestOutcome]
    wall_s: float

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in OUTCOMES}
        for o in self.outcomes:
            out[o.outcome] = out.get(o.outcome, 0) + 1
        return out


class ServiceTarget:
    """The real service: submit into a spool, poll its event-log fold.

    Works identically against a live supervisor-backed daemon (workers
    drain the queue while we poll) and a bare spool that something else —
    ``drain_queue``, a later daemon — will service.
    """

    def __init__(self, root: str) -> None:
        self.spool = JobSpool.ensure(root)

    def issue(self, spec: JobSpec) -> str:
        return self.spool.submit(spec)

    def completed(self, tokens: list[str]) -> dict[str, tuple[str, str | None]]:
        from repro.service.client import poll_jobs

        out: dict[str, tuple[str, str | None]] = {}
        for token, v in poll_jobs(self.spool, tokens).items():
            if v.state == "done":
                out[token] = ("done", None)
            elif v.state == "failed":
                out[token] = ("failed", v.error_type)
        return out


@dataclass
class _Pending:
    """Requests awaiting one token's completion (dedup'd share a token)."""

    entries: list[tuple[int, Request, float]] = field(default_factory=list)


def run_requests(requests: list[Request], target: Any, *,
                 timeout_s: float = 120.0,
                 poll: float = 0.02,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> LoadResult:
    """Issue ``requests`` against ``target`` and observe every outcome.

    Arrivals honour each request's planned ``t_offset`` with unbounded
    in-flight (open loop). Every request ends in exactly one of
    :data:`OUTCOMES`; a token quiet past ``timeout_s`` times out rather
    than hanging the run.
    """
    if timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
    t0 = clock()
    outcomes: list[RequestOutcome | None] = [None] * len(requests)
    pending: dict[str, _Pending] = {}
    next_up = 0

    while next_up < len(requests) or pending:
        progressed = False
        now = clock()
        # Issue every request whose arrival has come.
        while next_up < len(requests):
            req = requests[next_up]
            if req.t_offset > now - t0:
                break
            next_up += 1
            progressed = True
            try:
                token = target.issue(req.spec)
            except ServiceOverloadError as exc:
                outcomes[next_up - 1] = RequestOutcome(
                    i=req.i, key=req.key, token=None, outcome="shed",
                    error_type=type(exc).__name__,
                    t_issue=now - t0, latency=None)
                continue
            pending.setdefault(token, _Pending()).entries.append(
                (next_up - 1, req, now))
        # Collect completions for everything still in flight.
        if pending:
            terminal = target.completed(list(pending))
            if terminal:
                progressed = True
                now = clock()
                for token, (state, error_type) in terminal.items():
                    for idx, req, t_issue in pending.pop(token).entries:
                        outcomes[idx] = RequestOutcome(
                            i=req.i, key=req.key, token=token,
                            outcome="done" if state == "done" else "failed",
                            error_type=error_type,
                            t_issue=t_issue - t0, latency=now - t_issue)
        # Expire requests whose token has been quiet too long.
        now = clock()
        for token in list(pending):
            waiting = pending[token].entries
            live = [(i, r, t) for i, r, t in waiting if now - t <= timeout_s]
            for idx, req, t_issue in waiting:
                if now - t_issue > timeout_s:
                    progressed = True
                    outcomes[idx] = RequestOutcome(
                        i=req.i, key=req.key, token=token, outcome="timeout",
                        error_type=None, t_issue=t_issue - t0,
                        latency=now - t_issue)
            if live:
                pending[token].entries = live
            else:
                del pending[token]
        if not progressed:
            sleep(poll)
    return LoadResult(outcomes=[o for o in outcomes if o is not None],
                      wall_s=clock() - t0)
