"""Worker shard: claim jobs from the spool, execute them, survive anything.

One worker is one process running :func:`worker_main` in a loop — heartbeat,
check drain, claim, execute, report. Everything interesting is in how it
fails:

* **Crash mid-job** (exception, ``os._exit``, SIGKILL): the lease expires,
  the spool re-dispatches, and the *next* worker runs the job again from
  its first slice. The batch kernel is deterministic, so the result is
  bit-identical to an uninterrupted run; a whole Table-1 sweep costs about
  a millisecond of kernel time, less than journaling its progress would.
* **Slow job, live worker**: every slice beats the heartbeat and renews
  the lease well inside its TTL, so a sweep that outlives one lease is not
  re-dispatched from under a healthy holder. If a claim does race a live
  holder (lease lapsed mid-job), both compute the same result; the fold
  keeps the first ``done`` and ignores the other.
* **Result computed but completion lost** (killed between the result write
  and the ``done`` event): the result store is keyed by the job's content
  fingerprint, so the re-dispatched execution finds it and completes
  without recomputing.
* **Deadline exceeded**: jobs submitted with a deadline check it before
  every slice; once the wall clock passes ``submitted_t + deadline_s``
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
  the disk recovers — never a shard crash-loop.

A sweep job runs its slices in the shard process itself: the *supervisor*
provides process parallelism (N worker shards), so nesting a pool inside
each shard would only multiply processes without adding throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import JobDeadlineExceeded, ServiceError
from repro.obs import trace as _trace
from repro.obs.metrics import default_registry as _metrics
from repro.parallel.resilient import FaultInjector
from repro.robust.breaker import CircuitBreaker
from repro.service.jobs import JobView
from repro.service.spool import JobSpool
from repro.util import durable

__all__ = ["WorkerConfig", "Worker", "worker_main", "drain_queue"]

_ABSENT = object()

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
#: Minimum wall-clock seconds between heartbeat-path metrics flushes. The
#: flush itself always runs (a SIGKILL'd shard must not be a telemetry
#: blind spot); this only bounds its frequency.
METRICS_FLUSH_S = 2.0
#: Stop :meth:`Worker.run` after this many jobs; None runs until drain.
MAX_JOBS: int | None = None


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker shard needs; picklable (crosses the fork/spawn)."""

    root: str                    # spool directory
    name: str                    # shard name; also the heartbeat file stem
    #: Chaos harness fired before each sweep slice (supervision drills).
    injector: FaultInjector | None = None
    #: Observability plane: when True the shard writes a ``repro-trace/1``
    #: file (``<root>/obs/trace.<name>.jsonl``) with one trace id per job.
    #: Off by default — execution stays bit-identical and span-free.
    obs: bool = False


class _GuardedLadder:
    """Delegate that threads the worker's fit breaker into every ladder walk."""

    def __init__(self, ladder: Any, breaker: CircuitBreaker) -> None:
        self._ladder = ladder
        self.breaker = breaker

    def fit_model(self, *args: Any, **kwargs: Any) -> Any:
        return self._ladder.fit_model(*args, breaker=self.breaker, **kwargs)


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
        #: "cached-result:<id>", "spool-shed:<what>" — assertable without
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
        file) and, at most every :data:`METRICS_FLUSH_S` seconds, flushes the
        metrics registry to this shard's snapshot file — so a worker the
        supervisor later SIGKILLs has telemetry at most one flush interval
        stale instead of losing everything it ever counted.
        """
        self.spool.heartbeat(self.config.name, job=job, breakers={
            "model-fit": self.fit_breaker.state,
            "disk-cache": self.disk_breaker.state,
        })
        now = time.monotonic()
        if now - self._last_flush >= METRICS_FLUSH_S:
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
        """Simulate the job's design-space range, one slice at a time.

        Before each slice: the deadline gate, a heartbeat naming the job,
        the lease renewal, and the chaos injector. Renewals come well
        inside the TTL, so a sweep that outlives one lease is never
        re-dispatched from under us; they are wall-clock gated, so a job of
        fast slices does not append a renew event per slice.
        """
        from repro.simulator import get_profile
        from repro.simulator.batch import _table1_block, evaluate_design_space_batch
        from repro.simulator.interval import _sweep_slices

        spec = job.spec
        block = _table1_block().slice(spec.start, spec.stop)
        profile = get_profile(spec.app)
        injector = self.config.injector
        renew_every = self.spool.config.lease_ttl / 3.0
        last_renew = time.time()
        cycles = np.empty(len(block), dtype=np.float64)
        for i, (start, stop) in enumerate(_sweep_slices(len(block))):
            if deadline_t is not None and time.time() > deadline_t:
                raise JobDeadlineExceeded(
                    f"job {job.id[:12]} passed its deadline mid-sweep",
                    job_id=job.id, deadline_s=job.deadline_s or 0.0)
            self.heartbeat(job=job.id)
            now = time.time()
            if now - last_renew >= renew_every:
                self.spool.renew(job.id, self.config.name, now=now)
                last_renew = now
            if injector is not None:
                injector.fire(i, 1)
            cycles[start:stop] = evaluate_design_space_batch(
                block.slice(start, stop), profile, spec.n_instructions)
        return {"kind": "sweep", "app": spec.app,
                "start": spec.start, "stop": spec.stop, "cycles": cycles}

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

        False when the queue was idle *or* a spool write was shed: both
        mean "nothing to do right now, sleep a poll interval before trying
        again".
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
        re-dispatches, and the deterministic kernel plus the result store
        make the re-execution idempotent — after the disk recovers, no job
        is lost.
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
        """Claim/execute until drain (or :data:`MAX_JOBS`); returns jobs handled.

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
                if MAX_JOBS is not None and n_done >= MAX_JOBS:
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
        by :data:`METRICS_FLUSH_S`) and once more at exit with ``final=True``,
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
