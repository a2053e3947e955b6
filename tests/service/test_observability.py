"""Service observability plane: trace correlation, shard metrics, status."""

import io
import json
import os

import pytest

from repro.cli import main
from repro.obs import trace as _trace
from repro.obs.aggregate import merge_timeline, read_shard_metrics
from repro.obs.metrics import default_registry, reset_default_registry
from repro.obs.trace import validate_record
from repro.parallel import FaultInjector
from repro.service import (
    JobSpec,
    JobSpool,
    ServiceConfig,
    Worker,
    WorkerConfig,
    WorkerSupervisor,
    drain_queue,
    submit_job,
)
from repro.service import worker
from repro.service.supervisor import STATUS_SCHEMA
from repro.simulator.interval import SWEEP_SLICE

N_INSTR = 1_000_000


def sweep_spec(app="gcc", stop=4):
    return JobSpec(kind="sweep", app=app, start=0, stop=stop,
                   n_instructions=N_INSTR)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """These tests touch the process-global tracer/registry; isolate them."""
    _trace.shutdown()
    reset_default_registry()
    yield
    _trace.shutdown()
    reset_default_registry()


class TestTraceIdStamping:
    def test_submit_stamps_trace_id_equal_to_job_id(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        view = spool.jobs()[jid]
        assert view.trace_id == jid
        submit_ev = json.loads(spool.log_path.read_text().splitlines()[0])
        assert submit_ev["ev"] == "submit"
        assert submit_ev["trace_id"] == jid

    def test_claim_returns_view_carrying_trace_id(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        job = spool.claim("w0")
        assert job is not None and job.trace_id == jid

    def test_queue_events_carry_wall_clock(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        spool.claim("w0")
        spool.renew(jid, "w0")
        spool.fail(jid, "w0", "Boom", "msg", 0.1)
        spool.submit(sweep_spec())  # resubmit of the failed job
        spool.claim("w0")
        spool.complete(jid, "w0", {"ok": 1}, 0.1)
        for ev in map(json.loads, spool.log_path.read_text().splitlines()):
            assert ev["t"] > 0, ev


class TestWorkerTracing:
    def test_worker_spans_adopt_the_jobs_trace_id(self, tmp_path):
        buf = io.StringIO()
        _trace.configure(stream=buf)
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        assert drain_queue(spool) == 1
        records = [json.loads(x) for x in buf.getvalue().splitlines()]
        claims = [r for r in records if r["name"] == "job.claim"]
        executes = [r for r in records if r["name"] == "job.execute"]
        assert len(claims) == 1 and len(executes) == 1
        assert claims[0]["trace_id"] == jid
        assert executes[0]["trace_id"] == jid
        assert executes[0]["kind"] == "span"
        assert executes[0]["attrs"]["job_kind"] == "sweep"
        # inner executor spans inherit the context too — the whole attempt
        # hangs off one trace id
        assert {r["trace_id"] for r in records} == {jid}

    def test_cached_result_completion_is_annotated(self, tmp_path):
        buf = io.StringIO()
        _trace.configure(stream=buf)
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        # a previous holder stored the result but died before `done` landed
        spool.results.put(jid, {"kind": "sweep", "cycles": [1.0]})
        assert drain_queue(spool) == 1
        records = [json.loads(x) for x in buf.getvalue().splitlines()]
        reused = [r for r in records if r["name"] == "job.result-reused"]
        assert len(reused) == 1 and reused[0]["trace_id"] == jid
        assert not [r for r in records if r["name"] == "job.execute"]

    def test_obs_worker_writes_per_shard_trace_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "MAX_JOBS", 1)
        spool = JobSpool.ensure(tmp_path / "s")
        jid = spool.submit(sweep_spec())
        cfg = WorkerConfig(root=str(spool.root), name="w7", obs=True)
        assert Worker(cfg, spool=spool).run() == 1
        path = spool.root / "obs" / "trace.w7.jsonl"
        records = [json.loads(x) for x in path.read_text().splitlines()]
        for rec in records:
            validate_record(rec)
        assert {r["trace_id"] for r in records
                if r["name"] == "job.execute"} == {jid}
        # exit also leaves a final metrics snapshot
        doc = json.loads((spool.root / "metrics" / "w7.json").read_text())
        assert doc["final"] is True

    def test_obs_worker_trace_holds_cache_probes_of_the_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "MAX_JOBS", 1)
        spool = JobSpool.ensure(tmp_path / "s")
        # fit jobs sweep the full space through the shared result cache
        jid = spool.submit(JobSpec(kind="fit", app="gcc", model="LR-E",
                                   rate=0.01, n_instructions=N_INSTR))
        cfg = WorkerConfig(root=str(spool.root), name="w7", obs=True)
        assert Worker(cfg, spool=spool).run() == 1
        path = spool.root / "obs" / "trace.w7.jsonl"
        records = [json.loads(x) for x in path.read_text().splitlines()]
        probes = [r for r in records if r["name"] == "cache.probe"]
        assert probes and all(r["kind"] == "event" for r in probes)
        assert {r["trace_id"] for r in probes} == {jid}
        assert {r["attrs"]["namespace"] for r in probes} == {
            "repro-spool/1"}

    def test_untraced_worker_writes_no_trace_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker, "MAX_JOBS", 1)
        spool = JobSpool.ensure(tmp_path / "s")
        spool.submit(sweep_spec())
        cfg = WorkerConfig(root=str(spool.root), name="w0")
        assert Worker(cfg, spool=spool).run() == 1
        assert not (spool.root / "obs").exists()


class TestHeartbeatTelemetry:
    def test_heartbeat_carries_breaker_states(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        w = Worker(WorkerConfig(root=str(spool.root), name="w0"), spool=spool)
        w.heartbeat(job="j1")
        hb = spool.heartbeats()["w0"]
        assert hb["job"] == "j1"
        assert hb["breakers"] == {"model-fit": "closed",
                                  "disk-cache": "closed"}

    def test_heartbeat_flushes_metrics_after_interval(self, tmp_path, monkeypatch):
        spool = JobSpool.ensure(tmp_path / "s")
        monkeypatch.setattr(worker, "METRICS_FLUSH_S", 0.0)
        w = Worker(WorkerConfig(root=str(spool.root), name="w0"), spool=spool)
        default_registry().counter("service.jobs.completed").inc(3)
        w.heartbeat()
        doc = json.loads((spool.root / "metrics" / "w0.json").read_text())
        assert doc["schema"] == "repro-metrics/1"
        assert doc["shard"] == "w0"
        assert doc["pid"] == os.getpid()
        assert doc["final"] is False
        assert doc["metrics"]["service.jobs.completed"]["value"] == 3

    def test_flush_interval_bounds_write_frequency(self, tmp_path, monkeypatch):
        spool = JobSpool.ensure(tmp_path / "s")
        monkeypatch.setattr(worker, "METRICS_FLUSH_S", 3600.0)
        w = Worker(WorkerConfig(root=str(spool.root), name="w0"), spool=spool)
        w.heartbeat()
        assert not (spool.root / "metrics" / "w0.json").exists()

    def test_final_export_marks_snapshot_final(self, tmp_path):
        spool = JobSpool.ensure(tmp_path / "s")
        w = Worker(WorkerConfig(root=str(spool.root), name="w0"), spool=spool)
        w._export_metrics(final=True)
        doc = json.loads((spool.root / "metrics" / "w0.json").read_text())
        assert doc["final"] is True


class TestMetricsSalvage:
    def test_dead_workers_snapshot_renamed_per_generation(self, tmp_path):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=1))
        slot = sup.slots[0]
        slot.generation = 1
        mdir = sup.spool.root / "metrics"
        mdir.mkdir()
        (mdir / "w0.json").write_text('{"t": 1.0}')
        sup._handle_dead(slot, "code=-9")
        assert not (mdir / "w0.json").exists()
        assert (mdir / "w0.g1.json").read_text() == '{"t": 1.0}'
        assert "salvage-metrics:w0:g1" in sup.events

    def test_clean_drain_retirement_keeps_live_snapshot_name(self, tmp_path):
        """A retired slot is never respawned, so its final self-written
        snapshot must stay at metrics/<name>.json — salvage-renaming it
        made freshly-drained services look like they had broken flushes."""
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=1))
        sup.spool.request_drain()
        mdir = sup.spool.root / "metrics"
        mdir.mkdir()
        (mdir / "w0.json").write_text('{"t": 1.0}')
        sup._handle_dead(sup.slots[0], "code=0")
        assert (mdir / "w0.json").exists()
        assert not any(e.startswith("salvage-metrics") for e in sup.events)

    def test_salvage_without_snapshot_is_a_noop(self, tmp_path):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=1))
        sup._salvage_metrics(sup.slots[0])
        assert not any(e.startswith("salvage-metrics") for e in sup.events)


class TestStatusFile:
    def test_snapshot_shape_without_processes(self, tmp_path):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=2))
        submit_job(str(tmp_path / "s"), sweep_spec())
        snap = sup.status_snapshot()
        assert snap["schema"] == STATUS_SCHEMA
        assert [w["name"] for w in snap["workers"]] == ["w0", "w1"]
        assert all(not w["alive"] for w in snap["workers"])
        assert snap["queue"]["pending"] == 1
        assert snap["queue"]["depth"] == 1
        assert snap["draining"] is False
        assert "slo" in snap
        json.dumps(snap, default=str)  # must serialize

    def test_write_status_is_noop_without_target(self, tmp_path):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=1))
        sup.write_status()  # must not raise, must create nothing
        assert list(tmp_path.glob("*.json")) == []

    def test_write_status_creates_valid_document(self, tmp_path):
        target = tmp_path / "monitor" / "status.json"
        sup = WorkerSupervisor(ServiceConfig(
            root=str(tmp_path / "s"), workers=1, status_file=str(target)))
        sup.write_status()
        doc = json.loads(target.read_text())
        assert doc["schema"] == STATUS_SCHEMA
        assert not list(target.parent.glob(".*.tmp"))  # replaced atomically

    def test_obs_flag_reaches_worker_configs(self, tmp_path):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "s"),
                                             workers=2, obs=True))
        assert all(sup._worker_config(s).obs for s in sup.slots)
        off = WorkerSupervisor(ServiceConfig(root=str(tmp_path / "d")))
        assert not off._worker_config(off.slots[0]).obs

    def test_status_interval_validated(self, tmp_path):
        with pytest.raises(ValueError, match="status_interval"):
            ServiceConfig(root=str(tmp_path / "s"), status_interval=0.0)


class TestObsCli:
    def _spool_with_telemetry(self, tmp_path):
        root = tmp_path / "s"
        obs = root / "obs"
        obs.mkdir(parents=True)
        with open(root / "spool.jsonl", "w") as fh:
            fh.write(json.dumps({"ev": "submit", "id": "j1", "t": 100.0,
                                 "trace_id": "j1",
                                 "spec": {"kind": "sweep"}}) + "\n")
            fh.write(json.dumps({"ev": "lease", "id": "j1", "t": 101.0,
                                 "worker": "w0"}) + "\n")
            fh.write(json.dumps({"ev": "done", "id": "j1", "t": 105.0,
                                 "worker": "w0"}) + "\n")
        (obs / "trace.w0.jsonl").write_text(json.dumps({
            "schema": "repro-trace/1", "kind": "span", "span_id": 1,
            "parent_id": None, "name": "job.execute", "t_wall": 101.5,
            "t_start": 0.0, "duration_s": 3.0, "status": "ok",
            "error": None, "trace_id": "j1", "attrs": {}}) + "\n")
        return root

    def test_aggregate_writes_timeline_and_metrics(self, tmp_path, capsys):
        root = self._spool_with_telemetry(tmp_path)
        mdir = root / "metrics"
        mdir.mkdir()
        (mdir / "w0.json").write_text(json.dumps({
            "schema": "repro-metrics/1", "shard": "w0", "pid": 1,
            "t": 105.0, "final": True,
            "metrics": {"c": {"type": "counter", "value": 2}}}))
        out = tmp_path / "timeline.jsonl"
        magg = tmp_path / "agg.json"
        assert main(["obs", "aggregate", "--spool", str(root),
                     "--out", str(out), "--metrics-out", str(magg)]) == 0
        stdout = capsys.readouterr().out
        assert "4 records" in stdout
        lines = [json.loads(x) for x in out.read_text().splitlines()]
        assert [r["name"] for r in lines] == [
            "spool.submit", "spool.lease", "job.execute", "spool.done"]
        agg = json.loads(magg.read_text())
        assert agg["metrics"]["c"]["value"] == 2

    def test_report_prints_all_four_slo_metrics(self, tmp_path, capsys):
        root = self._spool_with_telemetry(tmp_path)
        assert main(["obs", "report", "--spool", str(root)]) == 0
        out = capsys.readouterr().out
        for metric in ("queue_wait", "lease_to_start", "execute", "e2e"):
            assert metric in out

    def test_missing_spool_is_a_typed_error(self, tmp_path, capsys):
        assert main(["obs", "report",
                     "--spool", str(tmp_path / "nope")]) != 0
        assert "no spool directory" in capsys.readouterr().err


class TestSloAfterCompaction:
    """Compaction folds job events into the snapshot, and the SLO fold
    reads only the event log, so its percentiles cover only the jobs
    submitted since the last compaction. The report says how many spool
    jobs that leaves out."""

    def test_report_counts_the_jobs_compaction_folded(self, tmp_path, capsys):
        from repro.obs import compute_slo_for_spool
        from repro.service.compaction import compact

        root = tmp_path / "s"
        spool = JobSpool.ensure(root)
        for stop in range(2, 7):
            spool.submit(sweep_spec(stop=stop))
        assert drain_queue(spool) == 5
        assert compute_slo_for_spool(root)["sweep"]["e2e"].count == 5
        assert main(["obs", "report", "--spool", str(root)]) == 0
        assert "left out" not in capsys.readouterr().out

        compact(spool)
        assert compute_slo_for_spool(root) == {}
        assert len(JobSpool.open(root).jobs()) == 5
        assert main(["obs", "report", "--spool", str(root)]) == 0
        assert "5 of 5 spool job(s) left out" in capsys.readouterr().out

        spool.submit(sweep_spec(stop=7))
        assert drain_queue(spool) == 1
        assert compute_slo_for_spool(root)["sweep"]["e2e"].count == 1
        assert main(["obs", "report", "--spool", str(root)]) == 0
        assert "5 of 6 spool job(s) left out" in capsys.readouterr().out


@pytest.mark.slow
class TestObservedChaosDrill:
    """The acceptance drill: SIGKILL a shard mid-job with the plane on."""

    def test_resumed_job_spans_share_original_trace_id(self, tmp_path):
        root = str(tmp_path / "s")
        sup = WorkerSupervisor(ServiceConfig(
            root=root, workers=2, lease_ttl=2.0, heartbeat_timeout=10.0,
            drain_on_idle=True, max_runtime=90.0, seed=3, obs=True,
            injector=FaultInjector(sigkill_indices=(1,))))
        # Three slices each, so the kill at task index 1 lands mid-job.
        jids = [submit_job(root, sweep_spec(app, stop=3 * SWEEP_SLICE))
                for app in ("gcc", "mcf")]
        assert sup.run() == 0
        assert any("code=-9" in e for e in sup.events), sup.events
        views = sup.spool.jobs()
        assert all(views[j].state == "done" for j in jids)
        killed = [j for j in jids if views[j].n_expired > 0]
        assert killed, "the drill never exercised re-dispatch"

        timeline = merge_timeline(root)
        # every merged record validates against repro-trace/1
        for rec in timeline.records:
            validate_record(rec)
        for jid in jids:
            mine = timeline.for_trace(jid)
            names = {r["name"] for r in mine}
            assert {"spool.submit", "spool.lease", "job.execute",
                    "spool.done"} <= names, (jid, sorted(names))
        for jid in killed:
            # one claim per attempt, killed and resumed alike, all under
            # the trace id minted at submission (the killed attempt's
            # execute span is inherently lost — it never finished)
            claims = [r for r in timeline.for_trace(jid)
                      if r["name"] == "job.claim"]
            assert len(claims) >= 2, claims
        # worker spans never invent trace ids of their own
        assert {r["trace_id"] for r in timeline.records
                if r["name"] == "job.execute"} <= set(jids)
        # shard metrics survived the kills (live flush or salvage)
        snapshots, unreadable = read_shard_metrics(root)
        assert snapshots and unreadable == 0
