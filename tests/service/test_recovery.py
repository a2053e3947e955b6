"""Crash-recovery invariants: nothing computed twice, nothing lost."""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.obs.metrics import default_registry
from repro.parallel import FaultInjector
from repro.service import (
    JobFailed,
    JobSpec,
    JobSpool,
    SpoolConfig,
    Worker,
    WorkerConfig,
    drain_queue,
    list_jobs,
    submit_job,
    wait_for,
    worker_main,
)
from repro.simulator import enumerate_design_space, get_profile, sweep_design_space
from repro.simulator.interval import SWEEP_SLICE

N_INSTR = 1_000_000
STOP = 12
#: A job of three slices, so a SIGKILL on the middle one lands mid-job.
N_SLICES = 3


def sweep_spec(app="gcc", stop=STOP):
    return JobSpec(kind="sweep", app=app, start=0, stop=stop,
                   n_instructions=N_INSTR)


def oracle(app="gcc", stop=STOP):
    configs = list(enumerate_design_space())[:stop]
    return sweep_design_space(configs, get_profile(app), n_instructions=N_INSTR)


def _spool_sheds():
    """Spool writes the disk refused, counted by every worker in this process."""
    return default_registry().counter("service.worker.spool_sheds").value


@pytest.mark.slow
class TestSigkillRecovery:
    def test_redispatch_after_sigkill_is_bit_identical(self, tmp_path):
        """Kill a worker mid-sweep; the successor recomputes the job."""
        stop = N_SLICES * SWEEP_SLICE
        root = tmp_path / "s"
        spool = JobSpool.ensure(root, SpoolConfig(lease_ttl=0.5))
        jid = spool.submit(sweep_spec(stop=stop))
        cfg = WorkerConfig(root=str(root), name="doomed",
                           injector=FaultInjector(sigkill_indices=(1,)))
        p = multiprocessing.Process(target=worker_main, args=(cfg,))
        p.start()
        p.join(timeout=60)
        assert p.exitcode == -9  # the kernel tore it down mid-slice

        while spool.jobs()[jid].state == "running":
            time.sleep(0.05)  # lease of the dead holder expires
        assert drain_queue(spool, worker="successor") == 1

        view = spool.jobs()[jid]
        assert view.state == "done"
        assert view.n_leases == 2
        assert view.n_expired == 1
        assert np.array_equal(np.asarray(spool.result(jid)["cycles"]),
                              oracle(stop=stop))


class TestSlicedSweep:
    """Sweep jobs run the library's batch kernel over Table-1 slices."""

    def test_job_across_slice_boundaries_matches_library_sweep(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(JobSpec(kind="sweep", app="mcf", start=500,
                                   stop=1100, n_instructions=N_INSTR))
        assert drain_queue(spool) == 1
        full = sweep_design_space(list(enumerate_design_space()),
                                  get_profile("mcf"), n_instructions=N_INSTR)
        cycles = np.asarray(spool.result(jid)["cycles"])
        assert cycles.dtype == np.float64
        assert np.array_equal(cycles, full[500:1100])


class TestResultReuse:
    def test_orphaned_result_completes_without_reexecution(self, tmp_path):
        """Crash between results.put and the done event: reuse, don't redo."""
        root = tmp_path / "s"
        spool = JobSpool.ensure(root)
        jid = spool.submit(sweep_spec())
        marker = {"kind": "sweep", "cycles": [1.0, 2.0, 3.0]}
        spool.results.put(jid, marker)  # the dead holder got exactly this far
        assert spool.jobs()[jid].state == "pending"
        assert drain_queue(spool, worker="successor") == 1
        view = spool.jobs()[jid]
        assert view.state == "done"
        assert view.elapsed == 0.0  # completed, not recomputed
        assert spool.result(jid) == marker


class TestPoisonJob:
    def test_non_repro_exception_fails_job_not_worker(self, tmp_path):
        """An unexpected exception (here: KeyError from an unknown app) must
        be recorded as that job's failure, not crash the shard — a crashing
        shard would re-dispatch the poison job into every replacement until
        the whole service exhausted its restart budget."""
        spool = JobSpool.ensure(tmp_path / "s")
        bad = spool.submit(JobSpec(kind="sweep", app="nosuchapp",
                                   start=0, stop=2, n_instructions=N_INSTR))
        good = spool.submit(sweep_spec(stop=2))
        assert drain_queue(spool, worker="w0") == 2  # same worker did both
        views = spool.jobs()
        assert views[bad].state == "failed"
        assert views[bad].error_type == "KeyError"
        assert views[good].state == "done"


class TestLeaseLapseRace:
    def test_lapsed_holder_and_successor_both_finish_harmlessly(
            self, tmp_path, monkeypatch):
        """Holder A stalls past its lease mid-job; B re-claims and completes;
        then A finishes too. The fold keeps B's done, nothing fails, and
        no per-job state is left behind."""
        stop = N_SLICES * SWEEP_SLICE
        spool = JobSpool.ensure(tmp_path / "s", SpoolConfig(lease_ttl=0.2))
        jid = spool.submit(sweep_spec(stop=stop))
        a = Worker(WorkerConfig(root=str(spool.root), name="a"), spool=spool)
        b = Worker(WorkerConfig(root=str(spool.root), name="b"), spool=spool)
        beat = a.heartbeat
        job_beats, b_ran = [], []

        def stall_at_first_slice(job=None):
            beat(job=job)
            if job is not None:
                job_beats.append(job)
                if len(job_beats) == 2:  # claim beat, then slice 0's beat
                    time.sleep(0.25)     # A's lease lapses mid-job
                    b_ran.append(b.run_once())

        monkeypatch.setattr(a, "heartbeat", stall_at_first_slice)
        assert a.run_once() is True
        assert b_ran == [True]

        view = spool.jobs()[jid]
        assert view.state == "done"
        assert view.worker == "b"  # the first terminal event wins
        assert view.n_leases == 2 and view.n_expired == 1
        events = [json.loads(line) for line in
                  spool.log_path.read_text().splitlines()]
        assert [e["worker"] for e in events
                if e["ev"] == "done" and e["id"] == jid] == ["b", "a"]
        assert not [e for e in events if e["ev"] == "fail"]
        assert np.array_equal(np.asarray(spool.result(jid)["cycles"]),
                              oracle(stop=stop))
        assert not (spool.root / "checkpoints").exists()


class TestSpoolShed:
    def test_claim_failure_sheds_instead_of_crashing(self, tmp_path):
        """A sick spool disk (append refused) must make the worker back
        off typed — not crash the shard, not wedge the loop."""
        from repro.robust import DiskFaultInjector, diskchaos

        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec(stop=2))
        w = Worker(WorkerConfig(root=str(tmp_path / "s"), name="w1"),
                   spool=spool)
        sheds = _spool_sheds()
        with diskchaos.injected(DiskFaultInjector(eio_write_at=(0,))):
            assert w.run_once() is False  # lease append failed: shed
        assert _spool_sheds() == sheds + 1
        assert spool.jobs()[jid].state == "pending"  # still claimable
        assert w.run_once() is True  # healthy disk again: job runs
        assert spool.jobs()[jid].state == "done"


class TestHeartbeats:
    """Every pass beats before it claims, naming no job; a claimed job
    beats again at the claim and before each slice, naming the job."""

    @staticmethod
    def _record_beats(monkeypatch, spool):
        beats = []
        beat = spool.heartbeat

        def record(worker, job=None, **kwargs):
            beats.append(job)
            beat(worker, job=job, **kwargs)

        monkeypatch.setattr(spool, "heartbeat", record)
        return beats

    @pytest.mark.parametrize("n_slices", [1, N_SLICES])
    def test_sweep_job_beats_before_every_slice(self, tmp_path, monkeypatch, n_slices):
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec(stop=n_slices * SWEEP_SLICE))
        w = Worker(WorkerConfig(root=str(tmp_path / "s"), name="w1"),
                   spool=spool)
        beats = self._record_beats(monkeypatch, spool)
        assert w.run_once() is True
        job_beats = [None, jid] + [jid] * n_slices
        assert beats == job_beats
        assert w.run_once() is False  # idle pass
        assert beats == job_beats + [None]

    def test_shed_claim_still_beats(self, tmp_path, monkeypatch):
        from repro.robust import DiskFaultInjector, diskchaos

        spool = JobSpool.ensure(tmp_path / "s")
        spool.submit(sweep_spec(stop=2))
        w = Worker(WorkerConfig(root=str(tmp_path / "s"), name="w1"),
                   spool=spool)
        beats = self._record_beats(monkeypatch, spool)
        sheds = _spool_sheds()
        with diskchaos.injected(DiskFaultInjector(eio_write_at=(0,))):
            assert w.run_once() is False
        assert _spool_sheds() == sheds + 1
        assert beats == [None]
        assert "w1" in spool.heartbeats()


class TestDeadlines:
    def test_expired_deadline_fails_typed(self, tmp_path):
        root = str(tmp_path / "s")
        jid = submit_job(root, sweep_spec(), deadline_s=1e-6)
        time.sleep(0.01)
        drain_queue(JobSpool.open(root))
        with pytest.raises(JobFailed) as exc_info:
            wait_for(root, jid, timeout=5.0)
        assert exc_info.value.error_type == "JobDeadlineExceeded"
        assert exc_info.value.exit_code == 14

    def test_resubmit_after_deadline_failure_runs_on_new_terms(self, tmp_path):
        """Resubmitting a deadline-failed job with a fresh deadline must
        actually run it — not re-fail against the long-expired original."""
        root = str(tmp_path / "s")
        jid = submit_job(root, sweep_spec(), deadline_s=1e-6)
        time.sleep(0.01)
        drain_queue(JobSpool.open(root))
        with pytest.raises(JobFailed):
            wait_for(root, jid, timeout=5.0)
        assert submit_job(root, sweep_spec(), deadline_s=3600.0) == jid
        drain_queue(JobSpool.open(root))
        assert wait_for(root, jid, timeout=5.0).state == "done"

    def test_generous_deadline_is_harmless(self, tmp_path):
        root = str(tmp_path / "s")
        jid = submit_job(root, sweep_spec(), deadline_s=3600.0)
        drain_queue(JobSpool.open(root))
        view = wait_for(root, jid, timeout=5.0)
        assert view.state == "done"
        assert np.array_equal(np.asarray(JobSpool.open(root).result(jid)["cycles"]),
                              oracle())


class TestClient:
    def test_wait_for_unknown_job_raises(self, tmp_path):
        root = str(tmp_path / "s")
        JobSpool.ensure(root)
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="unknown job"):
            wait_for(root, "deadbeef", timeout=1.0)

    def test_wait_for_times_out_instead_of_hanging(self, tmp_path):
        root = str(tmp_path / "s")
        jid = submit_job(root, sweep_spec())  # no worker will ever run it
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="timed out"):
            wait_for(root, jid, timeout=0.2)

    def test_list_jobs_is_submit_ordered(self, tmp_path):
        root = str(tmp_path / "s")
        first = submit_job(root, sweep_spec("gcc"))
        second = submit_job(root, sweep_spec("mcf"))
        assert [v.id for v in list_jobs(root)] == [first, second]
