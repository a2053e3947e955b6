"""Resilient execution: retries, timeouts, checkpoint/resume, fault injection.

The library's sweeps are long and embarrassingly parallel — slices of 4608
simulated configurations per application, nine models times five holdout
repetitions — and a single crashed worker or hung task must not throw the
whole run away. :class:`ResilientExecutor` wraps any
:class:`~repro.parallel.Executor` and adds, without changing the ``map``
contract (results always come back complete and in input order, or an
exception is raised):

* **Retries** — up to ``max_attempts`` runs of a task that raises, with
  exponential backoff and deterministic jitter (:func:`backoff_delay`,
  seeded via :mod:`repro.util.rng`, so reruns sleep identically).
* **Timeouts** — a per-task wall-clock budget, enforced on the process
  backend by killing the hung workers and rebuilding the pool; tasks that
  were in flight on innocent workers are resubmitted without consuming
  retry budget.
* **Checkpointing** — a :class:`CheckpointJournal` (append-only JSONL keyed
  by a stable task fingerprint) records every completed task; a resumed
  sweep skips work already journaled and returns bit-identical results.
* **Graceful degradation** — on ``BrokenProcessPool`` (a worker died
  mid-task) the pool is rebuilt once; a second death finishes the remaining
  work in-process, serially. Every downgrade is recorded in
  :attr:`ResilientExecutor.events`.
* **Fault injection** — a seeded :class:`FaultInjector` can probabilistically
  (or at chosen task indices) raise exceptions, inject delays, or hard-crash
  pool workers, for chaos testing the layers above.

Permanent failures never vanish silently: ``map`` finishes the rest of the
sweep (maximizing checkpointed progress) and then raises
:class:`~repro.errors.SweepAborted` carrying the partial results and
per-task :class:`~repro.errors.TaskFailure` records.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from repro.errors import (
    CheckpointError,
    InjectedFault,
    SweepAborted,
    TaskFailure,
    TaskTimeout,
)
from repro.obs import phase as _obs_phase
from repro.obs.metrics import default_registry as _metrics
from repro.parallel.executor import Executor, ProcessExecutor, SerialExecutor
from repro.util import durable
from repro.util.rng import child_rng, pick_fault, stream_seed

__all__ = [
    "backoff_delay",
    "CheckpointJournal",
    "FaultInjector",
    "ResilientExecutor",
    "sigkill_process",
    "task_fingerprint",
]

T = TypeVar("T")
R = TypeVar("R")

#: ``BrokenProcessPool`` events absorbed by rebuilding the pool; the next
#: one finishes the remaining work serially.
_POOL_REBUILDS = 1


def task_fingerprint(fn: Callable, index: int, item: Any) -> str:
    """Stable identity of one task: function name + position + payload.

    Hashes the pickled payload, so any picklable item works; including the
    index keeps duplicate payloads distinct (one journal entry per slot).
    """
    name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    h = hashlib.sha256()
    h.update(name.encode("utf-8"))
    h.update(b"\x00")
    h.update(str(index).encode("ascii"))
    h.update(b"\x00")
    h.update(pickle.dumps(item, protocol=4))
    return h.hexdigest()[:32]


#: Retry backoff in seconds: before attempt ``n + 1``,
#: ``min(BACKOFF_BASE * BACKOFF_FACTOR ** (n - 1), BACKOFF_MAX)``, scaled by
#: a seeded factor in ``1 ± JITTER``.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 30.0
JITTER = 0.5


def jittered_backoff(attempt: int, base: float, cap: float,
                     *stream: int | str) -> float:
    """Capped exponential backoff before attempt ``attempt + 1``:
    ``min(base * BACKOFF_FACTOR ** (attempt - 1), cap)``, scaled by a factor
    in ``1 ± JITTER`` drawn from ``child_rng(*stream)``, so it is a pure
    function of its arguments."""
    delay = min(base * BACKOFF_FACTOR ** (attempt - 1), cap)
    u = child_rng(*stream).random()
    return delay * (1.0 + JITTER * (2.0 * u - 1.0))


def backoff_delay(attempt: int, seed: int) -> float:
    """Task retry backoff: the jitter stream is seeded by the task
    fingerprint, so two runs of the same sweep back off identically."""
    return jittered_backoff(attempt, BACKOFF_BASE, BACKOFF_MAX,
                            seed, "backoff", attempt)


class CheckpointJournal:
    """Append-only JSONL journal of completed tasks.

    One line per task: ``{"fp": <fingerprint>, "v": <base64 pickle>}``.
    Values round-trip through pickle, so resumed results are bit-identical
    to freshly computed ones. Each record is a
    :func:`repro.util.durable.append_line`, so a crash loses at most the
    task in flight, and a failed or torn append is repaired by the next
    one; a torn final line is tolerated on load, any earlier corruption
    raises :class:`~repro.errors.CheckpointError`.

    Service workers sharing a checkpoint directory pass ``lock=True``: an
    advisory ``flock`` on a ``<path>.lock`` sidecar (see
    :class:`repro.util.locking.FileLock`) makes the journal single-writer,
    so two workers racing one job after a lease-expiry misjudgment cannot
    interleave torn JSONL lines. The lock is kernel-released when the
    holder dies, so a SIGKILLed worker never wedges the journal.
    """

    def __init__(self, path: str | Path, resume: bool = False,
                 lock: bool = False) -> None:
        self.path = Path(path)
        self._lock = None
        if lock:
            from repro.util.locking import FileLock

            self._lock = FileLock(self.path.with_name(self.path.name + ".lock"))
            if not self._lock.acquire(blocking=False):
                self._lock = None
                raise CheckpointError(
                    f"checkpoint journal {self.path} is locked by another "
                    "writer (advisory flock held elsewhere)"
                )
        self._completed: dict[str, Any] = {}
        if resume:
            self._completed = self._load()
        elif self.path.exists():
            self.path.unlink()

    def _load(self) -> dict[str, Any]:
        try:
            log, _ = durable.complete_lines(self.path.read_bytes())
        except FileNotFoundError:
            return {}
        if log.bad:
            raise CheckpointError(
                f"corrupt checkpoint journal {self.path} at line "
                f"{log.bad[0] + 1}: not a UTF-8 JSON object")
        completed: dict[str, Any] = {}
        for lineno, rec in log.records:
            try:
                completed[rec["fp"]] = pickle.loads(base64.b64decode(rec["v"]))
            except Exception as exc:
                raise CheckpointError(
                    f"corrupt checkpoint journal {self.path} at line "
                    f"{lineno + 1}: {exc}") from exc
        return completed

    @property
    def n_completed(self) -> int:
        return len(self._completed)

    def completed(self) -> dict[str, Any]:
        """Fingerprint -> result for every journaled task."""
        return dict(self._completed)

    def record(self, fingerprint: str, value: Any) -> None:
        # A failed append raises typed: the task's result was NOT journaled,
        # so a resume recomputes it rather than trust a torn record.
        if fingerprint in self._completed:
            return
        payload = base64.b64encode(pickle.dumps(value, protocol=4)).decode("ascii")
        line = json.dumps({"fp": fingerprint, "v": payload}) + "\n"
        try:
            durable.append_line(self.path, line.encode("utf-8"))
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint journal append failed at {self.path}: {exc}"
            ) from exc
        self._completed[fingerprint] = value

    def close(self) -> None:
        if self._lock is not None:
            self._lock.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"CheckpointJournal({str(self.path)!r}, n_completed={self.n_completed})"


@dataclass(frozen=True)
class FaultInjector:
    """Seeded chaos: inject exceptions, delays, or worker crashes into tasks.

    Decisions are a pure function of ``(seed, task index, attempt)``, made
    by :func:`repro.util.rng.pick_fault` (the core the disk injector
    shares), so a chaos run is exactly reproducible and a fault injected on
    attempt 1 can clear on attempt 2 (modeling transient failures). Crash
    injection calls ``os._exit`` — but only inside a pool worker process;
    in the driver process (serial execution or serial fallback) it is a
    no-op, so a sweep that degrades to serial always completes.

    The injector is picklable and crosses the process boundary with the task.
    """

    seed: int = 0
    p_exception: float = 0.0
    p_delay: float = 0.0
    p_crash: float = 0.0
    delay_seconds: float = 0.05
    fail_once_indices: tuple[int, ...] = ()  # InjectedFault on attempt 1 only
    fail_indices: tuple[int, ...] = ()       # InjectedFault on every attempt
    crash_indices: tuple[int, ...] = ()      # os._exit on every (worker) attempt
    # Service supervision drills: see sigkill_process.
    sigkill_indices: tuple[int, ...] = ()    # SIGKILL self on every (worker) attempt

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Build from a CLI spec like ``"exc=0.1,delay=0.05,crash=0.01"``."""
        keys = {"exc": "p_exception", "delay": "p_delay", "crash": "p_crash",
                "delay-seconds": "delay_seconds", "seed": "seed"}
        kwargs: dict[str, Any] = {"seed": seed}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, _, value = part.partition("=")
            if key not in keys or not value:
                raise ValueError(
                    f"bad chaos spec {part!r}; expected key=value with key in {sorted(keys)}"
                )
            kwargs[keys[key]] = int(value) if key == "seed" else float(value)
        return cls(**kwargs)

    def fire(self, index: int, attempt: int) -> None:
        """Maybe inject a fault for this (task, attempt). Called in-task."""
        # Crashes only kill pool workers; crashing the driver would take the
        # journal writer (and the test process) down with it. There an
        # explicit crash index is skipped and a crash draw does nothing.
        in_worker = multiprocessing.parent_process() is not None
        fault = pick_fault(self.seed, "inject", (index, attempt), index, (
            ("sigkill", 0.0, self.sigkill_indices if in_worker else ()),
            ("crash", 0.0, self.crash_indices if in_worker else ()),
            ("exc", 0.0, self.fail_indices
             + (self.fail_once_indices if attempt == 1 else ())),
            ("crash", self.p_crash, ()),
            ("exc", self.p_exception, ()),
            ("delay", self.p_delay, ()),
        ))
        if fault == "sigkill":
            sigkill_process(os.getpid())
        elif fault == "crash" and in_worker:
            os._exit(17)
        elif fault == "exc":
            raise InjectedFault(
                f"injected fault at task {index} (attempt {attempt})")
        elif fault == "delay":
            time.sleep(self.delay_seconds)


def sigkill_process(pid: int) -> bool:
    """SIGKILL ``pid``; False when it is already gone.

    Signal-level death: no atexit, no cleanup, nothing the interpreter can
    intercept, which is the case lease expiry and heartbeat supervision
    exist for. ``FaultInjector.sigkill_indices`` kills the worker itself;
    supervision drills kill a live worker from outside.
    """
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


class _TaskCall:
    """Picklable wrapper running the injector before the task function."""

    def __init__(self, fn: Callable[[Any], Any], injector: FaultInjector | None) -> None:
        self.fn = fn
        self.injector = injector

    def __call__(self, packed: tuple[int, int, Any]) -> Any:
        index, attempt, item = packed
        if self.injector is not None:
            self.injector.fire(index, attempt)
        return self.fn(item)


@dataclass
class _Pending:
    """One schedulable task attempt."""

    index: int
    attempt: int = 1
    not_before: float = 0.0  # monotonic time gate for backoff


class ResilientExecutor(Executor):
    """Wrap any executor with retries, timeouts, checkpointing, degradation.

    Parameters
    ----------
    inner:
        The backend doing the actual work (default: ``SerialExecutor``).
        Timeouts and crash recovery need a ``ProcessExecutor``; a serial
        backend still gets retries, checkpointing, and fault injection
        (a running in-process task cannot be interrupted, so timeouts are
        not enforced serially).
    max_attempts:
        Runs of a task that raises before it fails permanently; each retry
        waits :func:`backoff_delay`.
    task_timeout:
        Per-task wall-clock budget in seconds, measured from dispatch.
    journal:
        Checkpoint journal (or a path, opened fresh). Pass a
        ``CheckpointJournal(path, resume=True)`` to skip completed tasks.
    injector:
        Optional chaos harness applied to every task attempt.
    """

    def __init__(
        self,
        inner: Executor | None = None,
        *,
        max_attempts: int = 3,
        task_timeout: float | None = None,
        journal: CheckpointJournal | str | Path | None = None,
        injector: FaultInjector | None = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.inner = inner if inner is not None else SerialExecutor()
        self.max_attempts = max_attempts
        self.task_timeout = task_timeout
        if isinstance(journal, (str, Path)):
            journal = CheckpointJournal(journal)
        self.journal = journal
        self.injector = injector
        self.seed = seed
        self._sleep = sleep
        #: Operational log: "pool-rebuild", "serial-downgrade",
        #: "timeout-reset", "retry:<index>:<attempt>", "restored:<n>".
        self.events: list[str] = []

    # -- public API --------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        n = len(items)
        if n == 0:
            return []
        with _obs_phase("executor.map", n_tasks=n,
                        backend=type(self.inner).__name__) as sp:
            fps = [task_fingerprint(fn, i, item) for i, item in enumerate(items)]
            results: list[Any] = [None] * n
            done = [False] * n

            if self.journal is not None:
                completed = self.journal.completed()
                n_restored = 0
                for i, fp in enumerate(fps):
                    if fp in completed:
                        results[i] = completed[fp]
                        done[i] = True
                        n_restored += 1
                if n_restored:
                    self.events.append(f"restored:{n_restored}")
                    _metrics().counter("executor.tasks.restored").inc(n_restored)
                    sp.set(n_restored=n_restored)

            pending = deque(_Pending(i) for i in range(n) if not done[i])
            failures: list[TaskFailure] = []
            if pending:
                wrapped = _TaskCall(fn, self.injector)
                if isinstance(self.inner, ProcessExecutor):
                    self._run_pool(wrapped, items, fps, pending, results, failures)
                else:
                    self._run_serial(wrapped, items, fps, pending, results, failures)

            if failures:
                failures.sort(key=lambda f: f.index)
                sp.set(n_failures=len(failures))
                raise SweepAborted(n, results, failures,
                                   checkpointed=self.journal is not None)
            return results

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ResilientExecutor({self.inner!r}, max_attempts={self.max_attempts}, "
            f"task_timeout={self.task_timeout})"
        )

    # -- shared bookkeeping ------------------------------------------------

    def _complete(self, index: int, fp: str, value: Any, results: list[Any]) -> None:
        results[index] = value
        _metrics().counter("executor.tasks.completed").inc()
        if self.journal is not None:
            self.journal.record(fp, value)

    def _on_error(
        self,
        task: _Pending,
        exc: BaseException,
        fps: list[str],
        pending: deque,
        failures: list[TaskFailure],
    ) -> None:
        """Requeue with backoff while attempts remain, else record a permanent failure."""
        if task.attempt < self.max_attempts:
            delay = backoff_delay(task.attempt, stream_seed(self.seed, fps[task.index]))
            self.events.append(f"retry:{task.index}:{task.attempt}")
            _metrics().counter("executor.retries").inc()
            pending.append(
                _Pending(task.index, task.attempt + 1, time.monotonic() + delay)
            )
            return
        kind = "timeout" if isinstance(exc, TaskTimeout) else "exception"
        _metrics().counter("executor.failures").inc()
        if kind == "timeout":
            _metrics().counter("executor.timeouts").inc()
        failures.append(TaskFailure(
            index=task.index,
            fingerprint=fps[task.index],
            attempts=task.attempt,
            error_type=type(exc).__name__,
            message=str(exc),
            kind=kind,
        ))

    # -- serial backend ----------------------------------------------------

    def _run_serial(
        self,
        wrapped: _TaskCall,
        items: list[Any],
        fps: list[str],
        pending: deque,
        results: list[Any],
        failures: list[TaskFailure],
    ) -> None:
        while pending:
            task = pending.popleft()
            gap = task.not_before - time.monotonic()
            if gap > 0:
                self._sleep(gap)
            try:
                value = wrapped((task.index, task.attempt, items[task.index]))
            except Exception as exc:
                self._on_error(task, exc, fps, pending, failures)
            else:
                self._complete(task.index, fps[task.index], value, results)

    # -- process-pool backend ----------------------------------------------

    def _run_pool(
        self,
        wrapped: _TaskCall,
        items: list[Any],
        fps: list[str],
        pending: deque,
        results: list[Any],
        failures: list[TaskFailure],
    ) -> None:
        pool: ProcessExecutor = self.inner  # type: ignore[assignment]
        rebuilds_left = _POOL_REBUILDS
        # Window = pool width: every submitted task starts immediately, so
        # the per-task timeout clock (started at submit) is fair.
        window = max(1, pool.max_workers)
        inflight: dict[Any, tuple[_Pending, float]] = {}

        def requeue_inflight() -> None:
            # Tasks lost to a pool death/reset were not at fault: resubmit
            # them at the same attempt number (no retry budget consumed).
            for lost, _ in inflight.values():
                pending.appendleft(_Pending(lost.index, lost.attempt))
            inflight.clear()

        while pending or inflight:
            now = time.monotonic()
            # 1) Fill the dispatch window with due tasks.
            broken = False
            for _ in range(len(pending)):
                if len(inflight) >= window:
                    break
                task = pending.popleft()
                if task.not_before > now:
                    pending.append(task)
                    continue
                try:
                    fut = pool.submit(
                        wrapped, (task.index, task.attempt, items[task.index])
                    )
                except BrokenProcessPool:
                    pending.appendleft(task)
                    broken = True
                    break
                inflight[fut] = (task, time.monotonic())

            if not broken and not inflight:
                # Everything pending is gated behind a backoff delay.
                next_due = min(t.not_before for t in pending)
                self._sleep(max(0.0, next_due - time.monotonic()))
                continue

            # 2) Wait for completions (bounded so timeouts/backoffs wake us).
            if not broken:
                wait_timeout = None
                if self.task_timeout is not None or any(
                    t.not_before > 0 for t in pending
                ):
                    wait_timeout = 0.05
                done, _ = _futures_wait(
                    inflight, timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    task, _started = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenProcessPool:
                        pending.appendleft(_Pending(task.index, task.attempt))
                        broken = True
                    except Exception as exc:
                        self._on_error(task, exc, fps, pending, failures)
                    else:
                        self._complete(task.index, fps[task.index], value, results)

            # 3) Pool death: rebuild once, then degrade to serial.
            if broken:
                requeue_inflight()
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    pool.reset(kill=True)
                    self.events.append("pool-rebuild")
                    _metrics().counter("executor.pool_rebuilds").inc()
                    continue
                self.events.append("serial-downgrade")
                _metrics().counter("executor.serial_downgrades").inc()
                ordered = deque(sorted(pending, key=lambda t: t.index))
                pending.clear()
                self._run_serial(wrapped, items, fps, ordered, results, failures)
                return

            # 4) Enforce per-task timeouts; kill the pool to reclaim hung
            #    workers (deliberate reset — does not spend rebuild budget).
            if self.task_timeout is not None:
                now = time.monotonic()
                timed_out = [
                    fut for fut, (_t, started) in inflight.items()
                    if now - started > self.task_timeout
                ]
                if timed_out:
                    for fut in timed_out:
                        task, started = inflight.pop(fut)
                        exc = TaskTimeout(
                            f"task {task.index} exceeded {self.task_timeout:g}s "
                            f"wall-clock budget (attempt {task.attempt})"
                        )
                        self._on_error(task, exc, fps, pending, failures)
                    requeue_inflight()
                    pool.reset(kill=True)
                    self.events.append("timeout-reset")
                    _metrics().counter("executor.timeout_resets").inc()
