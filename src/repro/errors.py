"""Shared exception taxonomy for fault-tolerant experiment execution.

Every expected failure mode of the sweep drivers maps to one class here so
that callers (and the CLI) can react programmatically instead of parsing
tracebacks:

* :class:`TaskFailed` — one task exhausted its retry budget.
* :class:`TaskTimeout` — one task exceeded its wall-clock budget (a subtype
  of :class:`TaskFailed`, so generic handlers still catch it).
* :class:`SweepAborted` — a sweep finished with permanently failed tasks; it
  carries the partial results and the per-task failure records so completed
  work (typically also checkpointed) is never thrown away.
* :class:`CheckpointError` — a checkpoint journal is unreadable or corrupt.

The modeling layer adds its own failure modes (see :mod:`repro.robust`):

* :class:`DataIntegrityError` — input rows failed schema/range/integrity
  validation beyond what quarantine can absorb. Subclasses ``ValueError``
  too, so legacy ``except ValueError`` call sites keep working.
* :class:`NumericalError` — a numerical routine failed (ill-conditioned
  least squares, divergent NN training); carries a machine-readable
  ``cause`` slug plus a ``context`` dict for triage.
* :class:`ModelValidationError` — a trained model failed its post-training
  sanity gates (non-finite predictions, holdout error out of bounds).
* :class:`DegradationExhausted` — every rung of a fallback ladder failed,
  including the mean baseline; no trustworthy model could be deployed.

The service layer (see :mod:`repro.service`) adds the failure modes of a
long-running multi-process job daemon:

* :class:`ServiceError` — base for service-side failures (corrupt spool,
  supervisor gave up, worker pool unrecoverable).
* :class:`ServiceOverloadError` — admission control rejected a submission
  because the queue is at its configured depth; clients back off instead of
  hanging.
* :class:`CircuitOpenError` — a circuit breaker is open and the guarded
  backend (disk cache tier, expensive model fits) is being skipped.
* :class:`JobDeadlineExceeded` — a job blew its wall-clock deadline; the
  worker aborted it rather than let one slow job starve the queue.

Each class carries a distinct ``exit_code`` that :func:`repro.cli.main`
returns, so shell scripts can distinguish "a task timed out" from "the
journal is corrupt" without scraping stderr. :func:`exit_code_for` maps an
error-type *name* back to its code, for consumers (the service client) that
only see a serialized failure record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "ReproError",
    "TaskFailed",
    "TaskTimeout",
    "SweepAborted",
    "CheckpointError",
    "DataIntegrityError",
    "NumericalError",
    "ModelValidationError",
    "DegradationExhausted",
    "ServiceError",
    "ServiceOverloadError",
    "CircuitOpenError",
    "JobDeadlineExceeded",
    "InjectedFault",
    "TaskFailure",
    "exit_code_for",
]


@dataclass(frozen=True)
class TaskFailure:
    """Post-mortem record of one permanently failed task."""

    index: int           # position in the sweep's task list
    fingerprint: str     # stable task identity (see resilient.task_fingerprint)
    attempts: int        # attempts consumed, including the final one
    error_type: str      # exception class name (or "TaskTimeout")
    message: str
    kind: str = "exception"  # "exception" | "timeout"

    def summary(self) -> str:
        return (
            f"task {self.index} [{self.kind}] after {self.attempts} "
            f"attempt(s): {self.error_type}: {self.message}"
        )


class ReproError(Exception):
    """Base for expected, user-reportable failures.

    The CLI prints ``str(exc)`` as a one-line stderr message and returns
    ``exit_code`` instead of dumping a traceback.
    """

    exit_code: int = 1


class TaskFailed(ReproError):
    """A single task failed permanently (retry budget exhausted)."""

    exit_code = 3

    def __init__(self, message: str, failure: TaskFailure | None = None) -> None:
        super().__init__(message)
        self.failure = failure


class TaskTimeout(TaskFailed):
    """A task exceeded its per-task wall-clock timeout."""

    exit_code = 4


class SweepAborted(ReproError):
    """A sweep completed with permanent task failures.

    Carries everything needed to triage or resume: ``partial_results`` holds
    one slot per task in input order (``None`` where the task failed) and
    ``failures`` the per-task post-mortems.
    """

    exit_code = 5

    def __init__(
        self,
        n_total: int,
        partial_results: Sequence[object],
        failures: Sequence[TaskFailure],
        checkpointed: bool = False,
    ) -> None:
        self.n_total = n_total
        self.partial_results = list(partial_results)
        self.failures = list(failures)
        self.checkpointed = checkpointed
        n_done = n_total - len(self.failures)
        hint = "; completed tasks are checkpointed (rerun with resume)" if checkpointed else ""
        first = f"; first: {self.failures[0].summary()}" if self.failures else ""
        super().__init__(
            f"sweep aborted: {len(self.failures)}/{n_total} tasks failed "
            f"permanently, {n_done} completed{hint}{first}"
        )

    @property
    def n_completed(self) -> int:
        return self.n_total - len(self.failures)


class CheckpointError(ReproError):
    """A checkpoint journal could not be read or is corrupt."""

    exit_code = 6


class DataIntegrityError(ReproError, ValueError):
    """Input data failed schema/range/integrity validation.

    Raised when corrupt rows cannot (or may not) be quarantined away: the
    whole file is unreadable, every row is bad, or the quarantined fraction
    exceeds the caller's tolerance. ``report`` (when present) is the
    :class:`repro.robust.QuarantineReport` describing exactly which rows
    were rejected and why.

    Also a ``ValueError`` so pre-existing call sites that guarded ingest
    with ``except ValueError`` keep catching it.
    """

    exit_code = 7

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class NumericalError(ReproError, ArithmeticError):
    """A numerical routine failed in a detectable way.

    ``cause`` is a stable machine-readable slug (``"lsq-non-finite"``,
    ``"nn-divergence"``, ``"nn-restarts-exhausted"``, ``"prune-non-finite"``,
    ...) and ``context`` carries the numbers behind the diagnosis
    (condition number, epoch, loss, attempts) for structured logging.
    """

    exit_code = 8

    def __init__(self, message: str, cause: str = "unknown",
                 context: Mapping[str, object] | None = None) -> None:
        super().__init__(message)
        self.cause = cause
        self.context: dict[str, object] = dict(context or {})


class ModelValidationError(ReproError):
    """A trained model failed its post-training sanity gates.

    ``failures`` lists the human-readable reasons from the
    :class:`repro.robust.ValidationGate` checks that did not pass.
    """

    exit_code = 9

    def __init__(self, message: str, failures: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.failures = list(failures)


class DegradationExhausted(ModelValidationError):
    """Every rung of a degradation ladder failed, including the baseline.

    Subtype of :class:`ModelValidationError` so generic gate-failure
    handlers still catch it; the distinct exit code flags that not even
    the mean baseline produced an acceptable model.
    """

    exit_code = 10


class ServiceError(ReproError):
    """A failure inside the sweep/prediction job service itself.

    Raised for spool corruption, an unrecoverable worker pool (restart
    budget exhausted with jobs still queued), or any other daemon-side
    condition the submitting client did not cause.
    """

    exit_code = 11


class ServiceOverloadError(ServiceError):
    """Admission control rejected a submission: the queue is full.

    Typed load shedding — the service answers "try again later" instead of
    hanging the client or growing the spool without bound. ``depth`` and
    ``max_depth`` carry the queue state at rejection time.
    """

    exit_code = 12

    def __init__(self, message: str, depth: int = 0, max_depth: int = 0) -> None:
        super().__init__(message)
        self.depth = depth
        self.max_depth = max_depth


class CircuitOpenError(ServiceError):
    """A circuit breaker is open; the guarded backend was not called.

    ``breaker`` names the tripped circuit and ``retry_after`` is the
    seconds remaining until the breaker half-opens and lets a probe
    through (0.0 when unknown).
    """

    exit_code = 13

    def __init__(self, message: str, breaker: str = "",
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.breaker = breaker
        self.retry_after = retry_after


class JobDeadlineExceeded(ServiceError):
    """A service job exceeded its wall-clock deadline and was aborted.

    Deadlines propagate from the submission into the worker's per-task
    budget; the worker raises this inside the task stream so the sweep
    aborts promptly instead of finishing late work nobody is waiting for.
    """

    exit_code = 14

    def __init__(self, message: str, job_id: str = "",
                 deadline_s: float = 0.0) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.deadline_s = deadline_s


def exit_code_for(error_type: str) -> int:
    """Exit code for an error-type *name* (serialized failure records).

    Service failure records cross process boundaries as JSON, so the
    client maps the recorded class name back to the taxonomy's exit code;
    unknown names fall back to the generic :class:`ReproError` code.
    """
    cls = _BY_NAME.get(error_type)
    return cls.exit_code if cls is not None else ReproError.exit_code


class InjectedFault(RuntimeError):
    """Transient fault raised by the failure-injection harness.

    Deliberately *not* a :class:`ReproError`: injected faults model arbitrary
    task exceptions, and the resilient layer must treat them exactly like any
    other transient error (retry, then record as a :class:`TaskFailure`).
    """


#: Name -> class for every typed error, resolved once at import time.
_BY_NAME: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        ReproError, TaskFailed, TaskTimeout, SweepAborted, CheckpointError,
        DataIntegrityError, NumericalError, ModelValidationError,
        DegradationExhausted, ServiceError, ServiceOverloadError,
        CircuitOpenError, JobDeadlineExceeded,
    )
}
