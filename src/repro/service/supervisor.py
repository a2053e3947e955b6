"""Worker supervision: spawn N shards, watch them, restart what dies.

:class:`WorkerSupervisor` owns the service's process tree. Its contract is
the tentpole of the service layer — *degrade instead of dying*:

* A worker that **exits** (clean or crash, ``os._exit`` or unhandled
  exception) is detected by ``Process.is_alive()`` and respawned after a
  capped, seeded exponential backoff — deterministic per (seed, slot,
  restart number), so supervision drills replay exactly.
* A worker that is **alive but wedged** — heartbeat file older than
  ``heartbeat_timeout`` — is SIGKILLed and respawned. Its leased job
  re-dispatches once the lease expires and runs again from the start.
* Chaos injectors are given to the **initial** generation only. A drill
  that SIGKILLs worker 0 at slice 1 converges: the restarted worker runs
  clean, recomputes the job, and the sweep completes bit-identically.
* A slot that exhausts ``max_restarts`` is **abandoned** (recorded, never
  respawned); the service keeps running on the surviving shards. Only when
  *every* slot is dead with work still queued does :meth:`run` raise
  :class:`~repro.errors.ServiceError` — the one condition that genuinely
  cannot degrade further.
* **Drain** (SIGTERM/SIGINT, ``--max-runtime``, or idle with
  ``--drain-on-idle``) flips the spool's drain flag: workers finish their
  current job and exit; pending jobs stay spooled for the next ``serve``.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.obs.metrics import default_registry as _metrics
from repro.parallel.resilient import jittered_backoff, sigkill_process
from repro.service.compaction import CompactionPolicy
from repro.service.config import ServiceConfig
from repro.service.spool import JobSpool, SpoolConfig
from repro.service.worker import POLL_INTERVAL, WorkerConfig, worker_main
from repro.util import durable

__all__ = ["STATUS_SCHEMA", "WorkerSupervisor"]

#: Live health snapshot written by ``serve --status-file`` (DESIGN §13).
STATUS_SCHEMA = "repro-status/1"

#: Restart backoff in seconds: before a slot's ``n``-th respawn,
#: ``min(RESTART_BACKOFF_BASE * 2 ** (n - 1), RESTART_BACKOFF_MAX)``, scaled
#: by a seeded factor in ``[0.5, 1.5)`` (the task retries' schedule,
#: :func:`repro.parallel.resilient.jittered_backoff`).
RESTART_BACKOFF_BASE = 0.1
RESTART_BACKOFF_MAX = 5.0
#: Seconds between auto-compaction checks of the serve loop.
COMPACT_CHECK_INTERVAL = 5.0


@dataclass
class _Slot:
    """One worker slot: the live process plus its restart bookkeeping."""

    index: int
    process: multiprocessing.Process | None = None
    spawned_t: float = 0.0
    restarts: int = 0
    not_before: float = 0.0          # backoff gate for the next respawn
    abandoned: bool = False          # restart budget exhausted
    retired: bool = False            # exited cleanly under drain; stay down
    generation: int = 0

    @property
    def name(self) -> str:
        return f"w{self.index}"


class WorkerSupervisor:
    """Spawns, watches, restarts, and drains the service's worker shards."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.spool = JobSpool.ensure(
            config.root,
            SpoolConfig(max_depth=config.max_depth, lease_ttl=config.lease_ttl))
        self.slots = [_Slot(index=i) for i in range(config.workers)]
        #: Operational log: "spawn:w0:g1", "exit:w0:code=-9", "hung:w0",
        #: "restart:w0:2", "abandon:w0", "drain-requested:<why>".
        self.events: list[str] = []
        self._drain_flag = threading.Event()

    # -- process lifecycle ---------------------------------------------------

    def _worker_config(self, slot: _Slot) -> WorkerConfig:
        # Chaos applies to generation 1 only: restarted workers run clean,
        # so every kill/hang drill converges to a completed queue.
        injector = self.config.injector if slot.generation == 1 else None
        return WorkerConfig(
            root=str(self.spool.root),
            name=slot.name,
            injector=injector,
            obs=self.config.obs,
        )

    def _spawn(self, slot: _Slot) -> None:
        slot.generation += 1
        cfg = self._worker_config(slot)
        p = multiprocessing.Process(
            target=worker_main, args=(cfg,),
            name=f"repro-{slot.name}", daemon=True)
        p.start()
        slot.process = p
        slot.spawned_t = time.time()
        self.events.append(f"spawn:{slot.name}:g{slot.generation}")
        _metrics().counter("service.worker.spawns").inc()

    def _restart_delay(self, slot: _Slot) -> float:
        """Capped exponential backoff with seeded jitter (deterministic)."""
        return jittered_backoff(slot.restarts, RESTART_BACKOFF_BASE,
                                RESTART_BACKOFF_MAX, self.config.seed,
                                "svc-restart", slot.index, slot.restarts)

    def _salvage_metrics(self, slot: _Slot) -> None:
        """Preserve a dead worker's last metrics snapshot before respawn.

        The replacement generation will overwrite ``metrics/<name>.json``;
        renaming the dead generation's file to a generation-suffixed name
        keeps its counts visible to the aggregator. The snapshot embeds the
        writer's pid, so the ``(shard, pid)`` dedup in
        :func:`repro.obs.aggregate.read_shard_metrics` guarantees the rename
        can never double-count a shard that also flushed under its live name.

        Only called on the respawn path: a retired slot is never respawned,
        so its final self-written snapshot stays under the live name (where
        the doctor's shard-snapshot freshness probe expects it).
        """
        metrics_dir = self.spool.root / "metrics"
        src = metrics_dir / f"{slot.name}.json"
        dst = metrics_dir / f"{slot.name}.g{slot.generation}.json"
        try:
            import os

            os.replace(src, dst)
        except OSError:
            return  # never flushed (died early) or already salvaged
        self.events.append(f"salvage-metrics:{slot.name}:g{slot.generation}")
        _metrics().counter("service.metrics.salvaged").inc()

    def _handle_dead(self, slot: _Slot, why: str) -> None:
        self.events.append(f"exit:{slot.name}:{why}")
        _metrics().counter("service.worker.deaths").inc()
        slot.process = None
        if self.spool.drain_requested():
            # Draining: a dead worker is a finished worker. Retire the slot
            # so the respawn path never resurrects it — otherwise poll()
            # would spin spawn/exit cycles until every slot happened to be
            # reaped in the same pass.
            slot.retired = True
            self.events.append(f"retired:{slot.name}")
            return
        self._salvage_metrics(slot)
        slot.restarts += 1
        if slot.restarts > self.config.max_restarts:
            slot.abandoned = True
            self.events.append(f"abandon:{slot.name}")
            _metrics().counter("service.worker.abandoned").inc()
            return
        slot.not_before = time.time() + self._restart_delay(slot)
        self.events.append(f"restart:{slot.name}:{slot.restarts}")
        _metrics().counter("service.worker.restarts").inc()

    def start(self) -> None:
        self.spool.clear_drain()
        for slot in self.slots:
            self._spawn(slot)

    def poll(self) -> None:
        """One supervision pass: reap exits, kill hung workers, respawn."""
        now = time.time()
        heartbeats = self.spool.heartbeats()
        for slot in self.slots:
            if slot.abandoned or slot.retired:
                continue
            p = slot.process
            if p is None:
                if now >= slot.not_before:
                    self._spawn(slot)
                continue
            if not p.is_alive():
                code = p.exitcode
                p.join()
                self._handle_dead(slot, f"code={code}")
                continue
            hb = heartbeats.get(slot.name)
            # Stale heartbeats from a previous generation don't count: the
            # liveness baseline is the later of spawn time and last beat.
            last_seen = slot.spawned_t
            if hb is not None and hb.get("pid") == p.pid:
                last_seen = max(last_seen, float(hb.get("t", 0.0)))
            if now - last_seen > self.config.heartbeat_timeout:
                self.events.append(f"hung:{slot.name}")
                _metrics().counter("service.worker.hung_kills").inc()
                sigkill_process(p.pid)
                p.join()
                self._handle_dead(slot, "hung")

    # -- auto-compaction -----------------------------------------------------

    def maybe_compact(self) -> None:
        """One auto-compaction pass; failures degrade, never kill the loop.

        Compaction holds the spool flock for its duration, so it is safe
        against concurrent claims/submits by construction; a disk fault
        mid-compaction leaves a state the reader reconciles (DESIGN §15)
        and the next pass retries.
        """
        from repro.service.compaction import maybe_compact

        policy = CompactionPolicy(
            max_log_bytes=self.config.compact_max_log_bytes,
            max_events=self.config.compact_max_events)
        try:
            stats = maybe_compact(self.spool, policy)
        except (ServiceError, OSError) as exc:
            self.events.append(f"compact-failed:{type(exc).__name__}")
            _metrics().counter("service.compaction.failures").inc()
            return
        if stats is not None:
            self.events.append(
                f"compacted:g{stats.generation}:{stats.n_events_folded}ev")

    # -- live status ---------------------------------------------------------

    def status_snapshot(self) -> dict:
        """One ``repro-status/1`` health document: the operator's dashboard.

        Shard liveness (process + heartbeat age + breaker states from the
        heartbeat payloads), queue depth per state, and the current SLO
        percentiles folded from the spool log and any shard traces. Pure
        read — safe to call from tests without a status file configured.
        """
        from repro.obs.slo import compute_slo_for_spool, slo_snapshot

        now = time.time()
        heartbeats = self.spool.heartbeats()
        workers = []
        for slot in self.slots:
            p = slot.process
            hb = heartbeats.get(slot.name)
            hb_age = None
            breakers = None
            if hb is not None and p is not None and hb.get("pid") == p.pid:
                hb_age = max(0.0, now - float(hb.get("t", 0.0)))
                breakers = hb.get("breakers")
            workers.append({
                "name": slot.name,
                "alive": p is not None and p.is_alive(),
                "pid": p.pid if p is not None else None,
                "generation": slot.generation,
                "restarts": slot.restarts,
                "abandoned": slot.abandoned,
                "retired": slot.retired,
                "hb_age_s": hb_age,
                "job": hb.get("job") if hb is not None else None,
                "breakers": breakers,
            })
        by_state = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for view in self.spool.jobs(now).values():
            by_state[view.state] = by_state.get(view.state, 0) + 1
        from repro.service.spool import read_snapshot

        try:
            snap = read_snapshot(self.spool.root)
            generation = int(snap.get("generation", 0)) if snap else 0
        except ServiceError:
            generation = -1  # snapshot present but unreadable: fsck needed
        try:
            log_bytes = self.spool.log_path.stat().st_size
        except OSError:
            log_bytes = 0
        return {
            "schema": STATUS_SCHEMA,
            "t": now,
            "root": str(self.spool.root),
            "draining": self._drain_flag.is_set(),
            "workers": workers,
            "queue": dict(by_state,
                          depth=by_state["pending"] + by_state["running"]),
            "compaction": {"generation": generation, "log_bytes": log_bytes},
            "slo": slo_snapshot(compute_slo_for_spool(self.spool.root)),
        }

    def write_status(self) -> None:
        """Atomically refresh the status file (no-op without one configured).

        An unsynced atomic replace, so a reader never sees a torn JSON
        document; write failures are counted, never allowed to take the
        serve loop down.
        """
        if not self.config.status_file:
            return
        try:
            durable.replace_json(self.config.status_file, self.status_snapshot())
        except OSError:
            _metrics().counter("service.status.write_failures").inc()

    # -- drain and shutdown --------------------------------------------------

    def request_drain(self, why: str = "requested") -> None:
        """Flip the drain flag: workers finish current jobs and exit."""
        if not self._drain_flag.is_set():
            self._drain_flag.set()
            self.spool.request_drain()
            self.events.append(f"drain-requested:{why}")
            _metrics().counter("service.drains").inc()

    def _install_signal_handlers(self) -> dict[int, object]:
        """Route SIGTERM/SIGINT to a drain; returns the displaced handlers."""
        if threading.current_thread() is not threading.main_thread():
            return {}  # signal handlers only work on the main thread

        def _on_signal(signum: int, frame: object) -> None:
            self.request_drain(why=signal.Signals(signum).name)

        return {sig: signal.signal(sig, _on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT)}

    def alive(self) -> int:
        return sum(1 for s in self.slots
                   if s.process is not None and s.process.is_alive())

    def stop(self, grace: float = 5.0) -> None:
        """Drain, wait up to ``grace`` for clean exits, then SIGKILL."""
        self.request_drain(why="stop")
        deadline = time.monotonic() + grace
        for slot in self.slots:
            p = slot.process
            if p is None:
                continue
            p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                sigkill_process(p.pid)
                p.join()
            slot.process = None

    # -- the serve loop ------------------------------------------------------

    def run(self) -> int:
        """Serve until drained; returns 0, or raises :class:`ServiceError`.

        The loop ends when a drain has been requested (signal, runtime
        budget, idle queue) and every worker has exited. If instead every
        slot is abandoned while jobs are still queued, the service cannot
        make progress and raises — the one failure mode with no cheaper rung
        left.
        """
        displaced = self._install_signal_handlers()
        self.start()
        started = time.monotonic()
        idle_since: float | None = None
        last_status: float | None = None
        last_compact: float | None = None
        try:
            while True:
                self.poll()
                now = time.monotonic()
                if self.config.status_file and (
                        last_status is None
                        or now - last_status >= self.config.status_interval):
                    self.write_status()
                    last_status = now
                if self.config.auto_compact and (
                        last_compact is None
                        or now - last_compact >= COMPACT_CHECK_INTERVAL):
                    self.maybe_compact()
                    last_compact = now
                if self.config.max_runtime is not None and \
                        now - started > self.config.max_runtime:
                    self.request_drain(why="max-runtime")
                if self.config.drain_on_idle and not self._drain_flag.is_set():
                    if self.spool.depth() == 0:
                        idle_since = now if idle_since is None else idle_since
                        if now - idle_since >= self.config.idle_grace:
                            self.request_drain(why="idle")
                    else:
                        idle_since = None
                if self._drain_flag.is_set() and self.alive() == 0:
                    break
                if not self._drain_flag.is_set() and \
                        all(s.abandoned for s in self.slots):
                    pending = self.spool.depth()
                    if pending > 0:
                        raise ServiceError(
                            f"all {len(self.slots)} worker slot(s) exhausted "
                            f"their restart budget with {pending} job(s) "
                            "still queued; service cannot make progress")
                    # Nothing queued: an empty queue with no workers is a
                    # finished service, not a failed one — drain and exit 0.
                    self.request_drain(why="all-slots-abandoned")
                time.sleep(POLL_INTERVAL)
        finally:
            self.stop()
            # Final status write: the file a monitor finds after shutdown
            # says "drained, queue state X", not a stale mid-run snapshot.
            self.write_status()
            # Hand the displaced handlers back so an embedding process
            # (tests, a larger application) regains its own signal behaviour.
            for sig, handler in displaced.items():
                signal.signal(sig, handler)
        return 0
