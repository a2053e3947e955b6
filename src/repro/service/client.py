"""Client side of the service: submit, wait, inspect.

Everything here talks to the spool directory only — there is no socket and
no RPC. A client and a daemon that share a filesystem share a service:
``submit`` appends to the same flock-guarded event log the workers claim
from, and ``wait_for`` folds the same log the workers append completions
to. That makes the client exactly as crash-tolerant as the spool itself,
and lets ``repro jobs`` inspect a live, a draining, or a long-dead service
identically.

Failures stay typed end to end: a submission over the depth bound raises
:class:`~repro.errors.ServiceOverloadError` right here in the client
process, and a job that *failed* in a worker carries its recorded error
class name back through :func:`wait_for`, which re-raises it as a
:class:`~repro.errors.ServiceError` whose exit code (via
:func:`repro.errors.exit_code_for`) matches the original error's — so
``repro submit --wait`` exits with the same code the failing computation
would have produced locally.
"""

from __future__ import annotations

import time

from repro.errors import ServiceError, exit_code_for
from repro.service.jobs import JobSpec, JobView
from repro.service.spool import JobSpool, _job_view

__all__ = ["submit_job", "wait_for", "poll_jobs", "list_jobs", "format_jobs",
           "JobFailed"]


class JobFailed(ServiceError):
    """A waited-on job failed in its worker.

    ``error_type`` is the class name recorded in the spool; ``exit_code``
    mirrors that original error's code, so shell callers cannot tell the
    difference between a local failure and a remote one.
    """

    def __init__(self, message: str, view: JobView) -> None:
        super().__init__(message)
        self.view = view
        self.error_type = view.error_type or "ReproError"
        self.exit_code = exit_code_for(self.error_type)


def submit_job(root: str, spec: JobSpec,
               deadline_s: float | None = None) -> str:
    """Submit one job to the spool at ``root``; returns the job id.

    The spool is durable and daemon-independent: submitting before (or
    after) any ``repro serve`` is legal — the directory is created on
    first use, an existing ``config.json`` (the daemon's admission
    settings) is honoured, and queued jobs wait for the next daemon.

    Raises :class:`~repro.errors.ServiceOverloadError` when admission
    control sheds the submission.
    """
    return JobSpool.ensure(root).submit(spec, deadline_s=deadline_s)


def wait_for(root: str | JobSpool, jid: str, timeout: float = 60.0,
             poll: float = 0.05) -> JobView:
    """Block until job ``jid`` reaches a terminal state; return its view.

    Raises :class:`JobFailed` (carrying the original error's exit code)
    when the job failed, and :class:`~repro.errors.ServiceError` when
    ``timeout`` elapses first — a client never hangs forever on a dead
    service.
    """
    spool = root if isinstance(root, JobSpool) else JobSpool.open(root)
    deadline = time.monotonic() + timeout
    while True:
        view = poll_jobs(spool, [jid]).get(jid)
        if view is None:
            raise ServiceError(f"unknown job {jid!r} in spool {spool.root}")
        if view.state == "done":
            return view
        if view.state == "failed":
            raise JobFailed(
                f"job {jid[:12]} ({view.spec.summary()}) failed in worker "
                f"{view.worker}: {view.error_type}: {view.message}", view)
        if time.monotonic() > deadline:
            raise ServiceError(
                f"timed out after {timeout:g}s waiting for job {jid[:12]} "
                f"(state {view.state!r}, {view.n_leases} lease(s))")
        time.sleep(poll)


def poll_jobs(root: str | JobSpool, jids: list[str]) -> dict[str, JobView]:
    """Non-blocking bulk poll: current views for ``jids``, one log fold.

    The load runner (and anything else watching many jobs at once) calls
    this instead of ``wait_for`` per job — one fold of the event log per
    poll instead of one per job per poll, and a view built only for the
    ids asked about. Unknown ids are simply absent from the result;
    nothing blocks, nothing raises on a pending queue.
    """
    spool = root if isinstance(root, JobSpool) else JobSpool.open(root)
    records = spool._records()
    now = time.time()
    return {jid: _job_view(jid, records[jid], now)
            for jid in jids if jid in records}


def list_jobs(root: str | JobSpool) -> list[JobView]:
    """Every job in the spool, oldest submission first."""
    spool = root if isinstance(root, JobSpool) else JobSpool.open(root)
    return sorted(spool.jobs().values(), key=lambda v: (v.submitted_t, v.id))


def format_jobs(views: list[JobView]) -> str:
    """Human-readable queue listing for ``repro jobs``."""
    if not views:
        return "(no jobs)"
    lines = [f"{'ID':<12} {'STATE':<8} {'LEASES':>6}  SPEC"]
    for v in views:
        tail = ""
        if v.state == "failed":
            tail = f"  <- {v.error_type}: {v.message}"
        elif v.state == "running":
            tail = f"  @ {v.worker}"
        elif v.state == "done" and v.elapsed is not None:
            tail = f"  ({v.elapsed:.2f}s)"
        lines.append(
            f"{v.id[:12]:<12} {v.state:<8} {v.n_leases:>6}  "
            f"{v.spec.summary()}{tail}")
    return "\n".join(lines)
