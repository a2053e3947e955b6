"""Tests for worker supervision: restart backoff, chaos drills, drain."""

import time

import numpy as np
import pytest

import repro.service.supervisor as supervisor
from repro.errors import ServiceError
from repro.parallel import FaultInjector
from repro.service import (
    JobSpec,
    JobSpool,
    ServiceConfig,
    WorkerSupervisor,
    drain_queue,
    submit_job,
)
from repro.simulator import enumerate_design_space, get_profile, sweep_design_space
from repro.simulator.interval import SWEEP_SLICE

N_INSTR = 1_000_000
STOP = 12
#: Three slices: a SIGKILL at task index 1 lands in the middle of the job.
SLICED_STOP = 3 * SWEEP_SLICE


def sweep_spec(app="gcc", stop=STOP):
    return JobSpec(kind="sweep", app=app, start=0, stop=stop,
                   n_instructions=N_INSTR)


def oracle(app="gcc", stop=STOP):
    configs = list(enumerate_design_space())[:stop]
    return sweep_design_space(configs, get_profile(app), n_instructions=N_INSTR)


class TestSlotPolicy:
    """Supervision decisions tested without spawning any processes."""

    def _sup(self, tmp_path, **kw):
        kw.setdefault("workers", 1)
        kw.setdefault("max_restarts", 2)
        return WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"), **kw))

    def test_restart_delay_is_deterministic_and_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor, "RESTART_BACKOFF_MAX", 1.0)
        sup = self._sup(tmp_path, seed=5)
        slot = sup.slots[0]
        slot.restarts = 1
        assert sup._restart_delay(slot) == sup._restart_delay(slot)
        first = sup._restart_delay(slot)
        slot.restarts = 50
        assert sup._restart_delay(slot) <= 1.0 * 1.5  # capped + max jitter
        slot.restarts = 1
        assert sup._restart_delay(slot) == first  # keyed by (seed, slot, n)

    def test_dead_worker_schedules_backed_off_restart(self, tmp_path):
        sup = self._sup(tmp_path)
        slot = sup.slots[0]
        before = time.time()
        sup._handle_dead(slot, "code=-9")
        assert slot.restarts == 1
        assert not slot.abandoned
        assert slot.not_before > before
        assert any(e.startswith("restart:w0") for e in sup.events)

    def test_abandon_after_restart_budget(self, tmp_path):
        sup = self._sup(tmp_path, max_restarts=2)
        slot = sup.slots[0]
        for _ in range(3):
            sup._handle_dead(slot, "code=-9")
        assert slot.abandoned
        assert "abandon:w0" in sup.events

    def test_no_restart_while_draining(self, tmp_path):
        sup = self._sup(tmp_path)
        sup.spool.request_drain()
        slot = sup.slots[0]
        sup._handle_dead(slot, "code=0")
        assert slot.restarts == 0
        assert slot.retired
        assert not any(e.startswith("restart:") for e in sup.events)

    def test_retired_slot_is_never_respawned(self, tmp_path):
        """A drained worker must stay down — poll() once resurrected them,
        which kept the serve loop spinning spawn/exit cycles forever."""
        sup = self._sup(tmp_path)
        sup.spool.request_drain()
        sup._handle_dead(sup.slots[0], "code=0")
        sup.poll()
        assert sup.slots[0].process is None
        assert not any(e.startswith("spawn:") for e in sup.events)

    def test_all_abandoned_with_empty_queue_exits_cleanly(
            self, tmp_path, monkeypatch):
        """No queued work + no workers is a finished service, not a failed
        one — run() must drain and exit 0 instead of raising."""
        sup = self._sup(tmp_path)
        for slot in sup.slots:
            slot.abandoned = True
        monkeypatch.setattr(sup, "start", lambda: None)
        monkeypatch.setattr(sup, "poll", lambda: None)
        assert sup.run() == 0
        assert "drain-requested:all-slots-abandoned" in sup.events

    def test_all_abandoned_with_queued_work_raises(self, tmp_path, monkeypatch):
        sup = self._sup(tmp_path)
        sup.spool.submit(sweep_spec())
        for slot in sup.slots:
            slot.abandoned = True
        monkeypatch.setattr(sup, "start", lambda: None)
        monkeypatch.setattr(sup, "poll", lambda: None)
        with pytest.raises(ServiceError, match="restart budget"):
            sup.run()

    def test_run_restores_displaced_signal_handlers(self, tmp_path):
        import signal

        before = signal.getsignal(signal.SIGTERM)
        sup = WorkerSupervisor(ServiceConfig(
            root=str(tmp_path / "s"), workers=1, drain_on_idle=True,
            max_runtime=30.0))
        assert sup.run() == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_negative_idle_grace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="idle_grace"):
            ServiceConfig(root=str(tmp_path / "s"), idle_grace=-1.0)

    def test_chaos_injector_reaches_first_generation_only(self, tmp_path):
        injector = FaultInjector(sigkill_indices=(3,))
        sup = self._sup(tmp_path, injector=injector)
        slot = sup.slots[0]
        slot.generation = 1
        assert sup._worker_config(slot).injector is injector
        slot.generation = 2
        assert sup._worker_config(slot).injector is None


@pytest.mark.slow
class TestAutoCompaction:
    """The supervision loop's compaction hook, no processes spawned."""

    def _sup(self, tmp_path, **kw):
        kw.setdefault("workers", 1)
        return WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"), **kw))

    def test_below_threshold_is_a_noop(self, tmp_path):
        sup = self._sup(tmp_path)  # default 4 MiB / 4096 events
        sup.spool.submit(sweep_spec())
        sup.maybe_compact()
        assert not any(e.startswith("compacted:") for e in sup.events)
        assert not sup.spool.snapshot_path.exists()

    def test_past_threshold_compacts_and_reports(self, tmp_path):
        sup = self._sup(tmp_path, compact_max_log_bytes=1)
        sup.spool.submit(sweep_spec())
        sup.maybe_compact()
        assert any(e.startswith("compacted:g1:") for e in sup.events)
        assert sup.spool.snapshot_path.exists()
        status = sup.status_snapshot()
        assert status["compaction"]["generation"] == 1

    def test_compaction_failure_degrades_not_dies(self, tmp_path):
        sup = self._sup(tmp_path, compact_max_log_bytes=1)
        sup.spool.submit(sweep_spec())
        sup.spool.snapshot_path.write_text("not json")  # unreadable snapshot
        sup.maybe_compact()  # must not raise
        assert any(e.startswith("compact-failed:") for e in sup.events)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compact_max_log_bytes"):
            ServiceConfig(root=str(tmp_path / "s"), compact_max_log_bytes=0)


class TestSupervisedService:
    """End-to-end drills with real worker processes."""

    def test_clean_run_drains_on_idle(self, tmp_path):
        root = str(tmp_path / "s")
        sup = WorkerSupervisor(ServiceConfig(
            root=root, workers=2, drain_on_idle=True, max_runtime=60.0))
        jid = submit_job(root, sweep_spec())
        assert sup.run() == 0
        view = sup.spool.jobs()[jid]
        assert view.state == "done"
        result = sup.spool.result(jid)
        assert np.array_equal(np.asarray(result["cycles"]), oracle())

    def test_sigkilled_worker_is_restarted_and_job_redispatched(self, tmp_path):
        """The ISSUE acceptance drill: kill a worker mid-sweep, lose nothing."""
        root = str(tmp_path / "s")
        sup = WorkerSupervisor(ServiceConfig(
            root=root, workers=2, lease_ttl=2.0, heartbeat_timeout=10.0,
            drain_on_idle=True, max_runtime=90.0, seed=3,
            injector=FaultInjector(sigkill_indices=(1,))))
        jids = [submit_job(root, sweep_spec(app, stop=SLICED_STOP))
                for app in ("gcc", "mcf")]
        assert sup.run() == 0
        assert any("code=-9" in e for e in sup.events), sup.events
        assert any(e.startswith("restart:") for e in sup.events)
        views = sup.spool.jobs()
        assert all(views[j].state == "done" for j in jids)
        # Bit-identity against the serial oracle, straight through the
        # kill/restart/re-dispatch path.
        for jid, app in zip(jids, ("gcc", "mcf")):
            got = np.asarray(sup.spool.result(jid)["cycles"])
            assert np.array_equal(got, oracle(app, stop=SLICED_STOP))

    def test_idle_grace_lets_a_late_first_submit_land(self, tmp_path):
        """The quickstart race: ``serve --drain-on-idle &`` then ``submit``.
        Without an idle grace the server drained an initially-empty queue
        instantly and exited before the first job arrived."""
        import threading

        root = str(tmp_path / "s")
        sup = WorkerSupervisor(ServiceConfig(
            root=root, workers=1, drain_on_idle=True, idle_grace=5.0,
            max_runtime=60.0))
        rc: list[int] = []
        t = threading.Thread(target=lambda: rc.append(sup.run()))
        t.start()
        time.sleep(1.0)  # well inside the grace window, queue still empty
        jid = submit_job(root, sweep_spec())
        t.join(timeout=60.0)
        assert not t.is_alive() and rc == [0]
        assert sup.spool.jobs()[jid].state == "done"

    def test_stop_terminates_stragglers(self, tmp_path):
        root = str(tmp_path / "s")
        sup = WorkerSupervisor(ServiceConfig(root=root, workers=1))
        sup.start()
        assert sup.alive() == 1
        sup.stop(grace=5.0)
        assert sup.alive() == 0
        assert sup.spool.drain_requested()


class TestDrainQueue:
    def test_inline_drain_executes_everything(self, tmp_path):
        root = str(tmp_path / "s")
        spool = JobSpool.ensure(root)
        a = spool.submit(sweep_spec("gcc"))
        b = spool.submit(sweep_spec("mcf"))
        assert drain_queue(spool) == 2
        views = spool.jobs()
        assert views[a].state == "done" and views[b].state == "done"
        assert np.array_equal(np.asarray(spool.result(a)["cycles"]), oracle())
