"""Worker shard: claim jobs from the spool, execute them, survive anything.

One worker is one process running :func:`worker_main` in a loop — heartbeat,
check drain, claim, execute, report. Everything interesting is in how it
fails:

* **Crash mid-job** (exception, ``os._exit``, SIGKILL): the lease expires,
  the spool re-dispatches, and the *next* worker resumes from the job's
  checkpoint journal — :func:`execute_sweep` runs every per-config task
  through a :class:`~repro.parallel.ResilientExecutor` with a flock-guarded
  :class:`~repro.parallel.CheckpointJournal`, so re-execution recomputes
  only the tail and the final result is bit-identical to an uninterrupted
  run.
* **Slow job, live worker**: the per-task heartbeat path renews the lease
  well inside its TTL, so a sweep that outlives one lease is not
  re-dispatched from under a healthy holder; if a claim does race a live
  holder (lease lapsed mid-task), the holder's journal flock turns the
  race into a back-off — never a job failure.
* **Result computed but completion lost** (killed between the result write
  and the ``done`` event): the result store is keyed by the job's content
  fingerprint, so the re-dispatched execution finds it and completes
  without recomputing.
* **Deadline exceeded**: jobs submitted with a deadline carry it into every
  per-config task; once the wall clock passes ``submitted_t + deadline_s``
  the job fails with the typed
  :class:`~repro.errors.JobDeadlineExceeded` instead of running forever.
* **Sick dependencies**: two circuit breakers, held across jobs, guard the
  worker's expensive collaborators. ``model-fit`` wraps the degradation
  ladder's NN rungs — after repeated training failures the worker stops
  paying the NN training cost per job and lands on the linear rungs until
  the breaker half-opens. ``disk-cache`` guards the spool-shared disk cache
  tier, degrading it to memory-only while the disk misbehaves.
* **Sick spool disk**: a claim/complete/fail the spool cannot append
  (ENOSPC, EIO, or the spool's own write breaker open in read-only mode)
  is a typed :class:`~repro.errors.ServiceError` the loop turns into a
  ``spool-shed`` back-off — the job stays leased and re-dispatches after
  the disk recovers — never a shard crash-loop. A checkpoint-journal
  append the disk refuses sheds the same way: the journaled progress
  survives and the resumed attempt continues from it, instead of a
  transient fault poisoning the job with a permanent failure.

The worker's inner executor is serial: the *supervisor* provides process
parallelism (N worker shards), so nesting a pool inside each shard would
only multiply processes without adding throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import (
    CheckpointError,
    JobDeadlineExceeded,
    ServiceError,
    SweepAborted,
)
from repro.obs import trace as _trace
from repro.obs.metrics import default_registry as _metrics
from repro.parallel.executor import SerialExecutor
from repro.parallel.resilient import CheckpointJournal, FaultInjector, ResilientExecutor
from repro.robust.breaker import CircuitBreaker
from repro.service.jobs import JobView
from repro.service.spool import JobSpool
from repro.util import durable
from repro.util.rng import stream_seed

__all__ = ["WorkerConfig", "Worker", "worker_main", "drain_queue"]

_ABSENT = object()

#: Transient-exception retries per sweep config task.
TASK_RETRIES = 1
#: The ``model-fit`` breaker trips the NN ladder rungs after this many
#: consecutive fit failures, and half-opens after the reset seconds.
FIT_BREAKER_THRESHOLD = 3
FIT_BREAKER_RESET_S = 5.0
#: The ``disk-cache`` breaker trips the shared disk cache tier after this
#: many consecutive I/O errors, and half-opens after the reset seconds.
DISK_BREAKER_THRESHOLD = 3
DISK_BREAKER_RESET_S = 5.0
#: Idle sleep between claim attempts; the supervisor's serve loop sleeps
#: the same between supervision passes.
POLL_INTERVAL = 0.05


class _JournalLockHeld(Exception):
    """Internal: another live worker holds this job's journal flock.

    Raised (and handled) only inside :class:`Worker` — it means our claim
    raced a still-running previous holder whose lease lapsed. That is a
    back-off condition, never a job failure.
    """


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker shard needs; picklable (crosses the fork/spawn)."""

    root: str                    # spool directory
    name: str                    # shard name; also the heartbeat file stem
    seed: int = 0
    heartbeat_every: int = 32    # configs between mid-sweep heartbeats
    max_jobs: int | None = None  # stop after N jobs (tests); None: until drain
    #: Chaos harness applied to sweep task execution (supervision drills).
    injector: FaultInjector | None = None
    #: Observability plane: when True the shard writes a ``repro-trace/1``
    #: file (``<root>/obs/trace.<name>.jsonl``) with one trace id per job.
    #: Off by default — execution stays bit-identical and span-free.
    obs: bool = False
    #: Minimum wall-clock seconds between heartbeat-path metrics flushes.
    #: The flush itself always runs (a SIGKILL'd shard must not be a
    #: telemetry blind spot); this only bounds its frequency.
    metrics_flush_s: float = 2.0


class _GuardedLadder:
    """Delegate that threads the worker's fit breaker into every ladder walk."""

    def __init__(self, ladder: Any, breaker: CircuitBreaker) -> None:
        self._ladder = ladder
        self.breaker = breaker

    def fit_model(self, *args: Any, **kwargs: Any) -> Any:
        return self._ladder.fit_model(*args, breaker=self.breaker, **kwargs)


# Sweep jobs stay on the scalar per-config path on purpose. Routing them
# through the library's 512-config batch slices was measured on a 2-core
# host: tier-1 passed once the SIGKILL tests and the service drill used
# jobs of more than one slice, but the benchmark's `serve` wall time got
# worse in 3 of 3 alternating pairs (0.283/0.338/0.291 s -> 0.404/0.390/
# 0.391 s, seeds 1-3). Its jobs are 8-config slices, and an 8-config batch
# call costs 1.30 ms against 0.46 ms scalar, plus 0.31 ms to ship the
# payload. A full-space job would fall from 1.57 s to 0.03 s. Revisit once
# the fixed cost of `batch._gather` falls.
class _SweepTask:
    """Per-config task: deadline gate, periodic heartbeat, then evaluate.

    Runs in the worker process itself (serial inner executor), so it may
    hold live references to the spool. Checkpoint fingerprints hash the
    task *payload* ``(config, profile, n_instructions)`` — the tuple
    :func:`repro.simulator.interval._eval_cycles` evaluates — plus this
    class's qualname, so resumed journals match across worker generations.
    """

    def __init__(self, spool: JobSpool, worker: str, job_id: str,
                 deadline_t: float | None, heartbeat_every: int,
                 beat=None) -> None:
        self.spool = spool
        self.worker = worker
        self.job_id = job_id
        self.deadline_t = deadline_t
        self.heartbeat_every = max(1, heartbeat_every)
        # The owning Worker's heartbeat method when available: it layers the
        # breaker states and the periodic metrics flush onto the plain spool
        # heartbeat, so mid-sweep beats keep shard telemetry current too.
        self._beat = beat if beat is not None else \
            (lambda job=None: spool.heartbeat(worker, job=job))
        self._n = 0
        # Renew well inside the TTL so a sweep that outlives one lease is
        # never re-dispatched from under us; checked every task (wall-clock
        # gated) because a single slow task can outlast the config cadence.
        self._renew_every = self.spool.config.lease_ttl / 3.0
        self._last_renew = time.time()

    def __call__(self, args: tuple[Any, Any, int]) -> float:
        if self.deadline_t is not None and time.time() > self.deadline_t:
            raise JobDeadlineExceeded(
                f"job {self.job_id[:12]} passed its deadline mid-sweep",
                job_id=self.job_id)
        self._n += 1
        if self._n % self.heartbeat_every == 0:
            self._beat(job=self.job_id)
        now = time.time()
        if now - self._last_renew >= self._renew_every:
            self.spool.renew(self.job_id, self.worker, now=now)
            self._last_renew = now
        from repro.simulator.interval import _eval_cycles

        return _eval_cycles(args)


class Worker:
    """One shard's claim/execute loop plus its per-shard breakers."""

    def __init__(self, config: WorkerConfig, spool: JobSpool | None = None) -> None:
        self.config = config
        self.spool = spool if spool is not None else JobSpool.open(config.root)
        self.fit_breaker = CircuitBreaker(
            f"model-fit:{config.name}",
            failure_threshold=FIT_BREAKER_THRESHOLD,
            reset_timeout=FIT_BREAKER_RESET_S)
        self.disk_breaker = CircuitBreaker(
            f"disk-cache:{config.name}",
            failure_threshold=DISK_BREAKER_THRESHOLD,
            reset_timeout=DISK_BREAKER_RESET_S)
        #: Operational log: "claim:<id>", "done:<id>", "fail:<id>:<type>",
        #: "cached-result:<id>", "conflict:<id>" — assertable without
        #: reaching into the spool.
        self.events: list[str] = []
        self._last_flush = time.monotonic()
        self._configure_cache()

    def _configure_cache(self) -> None:
        """Point the process-wide cache at the spool-shared disk tier.

        Namespaced per spool schema so service entries never collide with a
        user's own ``REPRO_CACHE_DIR``; breaker-guarded so a sick disk
        degrades the tier to memory-only instead of stalling every job.
        """
        from repro.cache.result_cache import configure
        from repro.service.spool import SPOOL_SCHEMA

        configure(max_entries=128,
                  disk_root=Path(self.config.root) / "cache",
                  namespace=SPOOL_SCHEMA,
                  disk_breaker=self.disk_breaker)

    def heartbeat(self, job: str | None = None) -> None:
        """Beat liveness *and* keep shard telemetry current.

        Every beat carries the breaker states (for the supervisor's status
        file) and, at most every ``metrics_flush_s`` seconds, flushes the
        metrics registry to this shard's snapshot file — so a worker the
        supervisor later SIGKILLs has telemetry at most one flush interval
        stale instead of losing everything it ever counted.
        """
        self.spool.heartbeat(self.config.name, job=job, breakers={
            "model-fit": self.fit_breaker.state,
            "disk-cache": self.disk_breaker.state,
        })
        now = time.monotonic()
        if now - self._last_flush >= self.config.metrics_flush_s:
            self._last_flush = now
            self._export_metrics()

    # -- job execution -------------------------------------------------------

    def execute(self, job: JobView) -> Any:
        """Run one leased job to a result (raises typed errors on failure)."""
        deadline_t = None
        if job.deadline_s is not None:
            deadline_t = job.submitted_t + job.deadline_s
            if time.time() > deadline_t:
                raise JobDeadlineExceeded(
                    f"job {job.id[:12]} expired before execution "
                    f"(deadline {job.deadline_s:g}s after submission)",
                    job_id=job.id, deadline_s=job.deadline_s or 0.0)
        if job.spec.kind == "sweep":
            return self.execute_sweep(job, deadline_t)
        return self.execute_fit(job, deadline_t)

    def execute_sweep(self, job: JobView, deadline_t: float | None) -> Any:
        """Simulate the job's design-space slice, checkpointed per config."""
        from repro.simulator import enumerate_design_space, get_profile

        spec = job.spec
        configs = list(enumerate_design_space())[spec.start:spec.stop]
        profile = get_profile(spec.app)
        items = [(c, profile, spec.n_instructions) for c in configs]
        task = _SweepTask(self.spool, self.config.name, job.id,
                          deadline_t, self.config.heartbeat_every,
                          beat=self.heartbeat)
        try:
            journal = CheckpointJournal(self.spool.checkpoint_path(job.id),
                                        resume=True, lock=True)
        except CheckpointError as exc:
            # The flock is kernel-held, so the previous holder is *alive*
            # and still sweeping — its lease lapsed, not the job. Backing
            # off (instead of failing the job) lets its done event land.
            raise _JournalLockHeld(str(exc)) from exc
        ex = ResilientExecutor(
            SerialExecutor(),
            max_attempts=TASK_RETRIES + 1,
            journal=journal,
            injector=self.config.injector,
            seed=stream_seed(self.config.seed, "svc-job", job.id),
        )
        try:
            cycles = ex.map(task, items)
        except SweepAborted as exc:
            # Progress is journaled; surface the most meaningful cause.
            for failure in exc.failures:
                if failure.error_type == "JobDeadlineExceeded":
                    raise JobDeadlineExceeded(
                        f"job {job.id[:12]} passed its deadline with "
                        f"{len(exc.failures)} task(s) unfinished",
                        job_id=job.id, deadline_s=job.deadline_s or 0.0) from exc
            raise
        finally:
            ex.close()
        return {"kind": "sweep", "app": spec.app,
                "start": spec.start, "stop": spec.stop,
                "cycles": np.asarray(cycles, dtype=np.float64)}

    def execute_fit(self, job: JobView, deadline_t: float | None) -> Any:
        """Run one sampled-DSE fit, breaker-guarding the NN ladder rungs."""
        from repro.core import model_builders, run_sampled_dse
        from repro.robust import ValidationGate, default_ladder
        from repro.simulator import (
            design_space_dataset,
            enumerate_design_space,
            get_profile,
            sweep_design_space,
        )

        spec = job.spec
        configs = list(enumerate_design_space())
        space = design_space_dataset(
            configs, sweep_design_space(configs, get_profile(spec.app),
                                        n_instructions=spec.n_instructions,
                                        cache=True))
        if deadline_t is not None and time.time() > deadline_t:
            raise JobDeadlineExceeded(
                f"job {job.id[:12]} passed its deadline after the sweep",
                job_id=job.id, deadline_s=job.deadline_s)
        self.heartbeat(job=job.id)
        self.spool.renew(job.id, self.config.name)
        builders = model_builders((spec.model,), seed=spec.seed)
        ladder = None
        if spec.robust:
            ladder = _GuardedLadder(
                default_ladder(seed=spec.seed, gate=ValidationGate()),
                self.fit_breaker)
        rng = np.random.default_rng(spec.seed)
        result = run_sampled_dse(space, builders, spec.rate, rng, ladder=ladder)
        outcome = result.outcomes[spec.model]
        return {
            "kind": "fit", "app": spec.app, "model": spec.model,
            "rate": result.rate, "n_sampled": result.n_sampled,
            "estimated_error_max": outcome.estimated_error_max,
            "true_error": outcome.true_error,
            "deployed": outcome.deployed or spec.model,
            "degraded": outcome.degraded,
        }

    # -- the loop ------------------------------------------------------------

    def run_once(self) -> bool:
        """Claim and finish at most one job.

        False when the queue was idle *or* the claimed job turned out to be
        owned by a live worker (journal flock held): both mean "nothing to
        do right now, sleep a poll interval before trying again".
        """
        self.heartbeat()
        try:
            job = self.spool.claim(self.config.name)
        except ServiceError:
            # The spool could not append the lease event (disk fault or
            # write breaker open: read-only mode). Nothing was claimed;
            # shed typed and back off a poll interval instead of letting
            # a sick disk crash-loop the shard through the supervisor's
            # restart budget.
            return self._shed("claim")
        if job is None:
            return False
        # Adopt the job's trace id for everything this attempt does: spans
        # and events from this shard join the cross-process timeline the
        # submitter started, even when this is a re-dispatch after a crash.
        with _trace.trace_context(job.trace_id or job.id):
            return self._run_claimed(job)

    def _shed(self, what: str) -> bool:
        """Count a spool write the disk refused; report idle (back off).

        The job (if any) stays leased: once its lease expires it
        re-dispatches, and the checkpoint journal plus result store make
        the re-execution idempotent — after the disk recovers, no work is
        lost and none is duplicated.
        """
        self.events.append(f"spool-shed:{what}")
        _metrics().counter("service.worker.spool_sheds").inc()
        return False

    def _run_claimed(self, job: JobView) -> bool:
        self.events.append(f"claim:{job.id[:12]}")
        _trace.annotate("job.claim", job_id=job.id, worker=self.config.name,
                        attempt=job.n_leases)
        self.heartbeat(job=job.id)
        started = time.monotonic()
        cached = self.spool.result(job.id, _ABSENT)
        if cached is not _ABSENT:
            # A previous holder computed the result but died before the
            # ``done`` event landed; completion is all that is left to do.
            self.events.append(f"cached-result:{job.id[:12]}")
            _metrics().counter("service.jobs.result_reused").inc()
            _trace.annotate("job.result-reused", job_id=job.id)
            try:
                self.spool.complete(job.id, self.config.name, cached,
                                    elapsed=0.0)
            except ServiceError:
                return self._shed(job.id[:12])
            return True
        try:
            with _trace.span("job.execute", job_id=job.id,
                             job_kind=job.spec.kind, worker=self.config.name,
                             attempt=job.n_leases):
                result = self.execute(job)
        except _JournalLockHeld:
            # The job is still owned by a live worker whose lease lapsed
            # (our claim re-leased it). Not a failure: append no terminal
            # event — the real holder's renew/done will land — and report
            # idle so the loop backs off for a poll interval.
            self.events.append(f"conflict:{job.id[:12]}")
            _metrics().counter("service.jobs.lock_conflicts").inc()
            return False
        except CheckpointError:
            # A journal append the disk refused: the disk is sick, not the
            # job. No terminal event — progress up to the failed append is
            # journaled, the lease expires, and a later attempt resumes
            # from the journal once the disk heals. Failing the job here
            # would let a transient fault poison deterministic work.
            return self._shed(job.id[:12])
        except Exception as exc:
            # Deliberately broad: one bad job must not take the shard (and,
            # via restart-budget exhaustion, the whole service) down with
            # it; record it failed and keep serving.
            elapsed = time.monotonic() - started
            self.events.append(f"fail:{job.id[:12]}:{type(exc).__name__}")
            try:
                self.spool.fail(job.id, self.config.name,
                                type(exc).__name__, str(exc), elapsed)
            except ServiceError:
                return self._shed(job.id[:12])
            return True
        elapsed = time.monotonic() - started
        try:
            self.spool.complete(job.id, self.config.name, result, elapsed)
        except ServiceError:
            return self._shed(job.id[:12])
        self.events.append(f"done:{job.id[:12]}")
        return True

    def run(self) -> int:
        """Claim/execute until drain (or ``max_jobs``); returns jobs handled.

        Checks the drain flag *before* claiming, so a drain request never
        strands a freshly leased job — the current job always finishes, the
        next one stays pending for the post-restart service.
        """
        if self.config.obs:
            # Per-shard trace file: single writer, no cross-process locking
            # on the hot path; repro.obs.aggregate merges them afterwards.
            _trace.configure(
                trace_path=str(self.spool.root / "obs"
                               / f"trace.{self.config.name}.jsonl"),
                registry=_metrics())
        n_done = 0
        try:
            while True:
                if self.spool.drain_requested():
                    break
                if self.config.max_jobs is not None \
                        and n_done >= self.config.max_jobs:
                    break
                if self.run_once():
                    n_done += 1
                else:
                    time.sleep(POLL_INTERVAL)
        finally:
            self._export_metrics(final=True)
            if self.config.obs:
                _trace.shutdown()
        return n_done

    def _export_metrics(self, final: bool = False) -> None:
        """Persist this shard's metrics so the service can aggregate them.

        Called from the heartbeat path throughout the shard's life (capped
        by ``metrics_flush_s``) and once more at exit with ``final=True``,
        which also covers the last partial flush interval.
        """
        import os

        doc = _metrics().to_json(extra={
            "shard": self.config.name, "pid": os.getpid(), "t": time.time(),
            "final": final})
        try:
            durable.replace_file(
                self.spool.root / "metrics" / f"{self.config.name}.json",
                doc.encode(), sync=False)
        except OSError:
            _metrics().counter("service.metrics.export_failures").inc()


def worker_main(config: WorkerConfig) -> int:
    """Process entry point for one worker shard (supervisor spawn target)."""
    return Worker(config).run()


def drain_queue(spool: JobSpool, worker: str = "inline",
                config: WorkerConfig | None = None) -> int:
    """Run an in-process worker until the queue is empty (tests, tooling)."""
    cfg = config if config is not None else WorkerConfig(
        root=str(spool.root), name=worker)
    w = Worker(cfg, spool=spool)
    n = 0
    while w.run_once():
        n += 1
    return n
