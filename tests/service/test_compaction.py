"""Crash-consistent compaction: fold identity, swap atomicity, GC, fsck."""

import json

import pytest

from repro.errors import ServiceError
from repro.robust import SimulatedCrash
from repro.service import (
    CompactionPolicy,
    JobSpec,
    JobSpool,
    SpoolConfig,
    compact,
    maybe_compact,
    read_snapshot,
    should_compact,
    verify_spool,
)
from repro.service.compaction import CRASH_POINTS, render_verify
from repro.service.spool import _SnapshotRaced


def spec(start=0, stop=8, app="gcc", **kw):
    return JobSpec(kind="sweep", app=app, start=start, stop=stop,
                   n_instructions=1_000_000, **kw)


@pytest.fixture()
def spool(tmp_path):
    return JobSpool.ensure(tmp_path / "spool",
                           SpoolConfig(max_depth=16, lease_ttl=10.0))


def view_state(views):
    """Comparable projection of a jobs() fold."""
    return {jid: (v.state, v.worker, v.n_leases, v.n_expired, v.error_type,
                  v.spec.as_dict()) for jid, v in views.items()}


def populate(spool):
    """One job in each lifecycle corner; returns ids by role."""
    done = spool.submit(spec(start=0, stop=1))
    spool.claim("w0", now=100.0)
    spool.complete(done, "w0", {"cycles": [1, 2]}, elapsed=0.3)
    failed = spool.submit(spec(start=1, stop=2))
    spool.claim("w0", now=101.0)
    spool.fail(failed, "w0", "TaskFailed", "boom", elapsed=0.1)
    running = spool.submit(spec(start=2, stop=3))
    spool.claim("w1", now=102.0)
    pending = spool.submit(spec(start=3, stop=4))
    return {"done": done, "failed": failed, "running": running,
            "pending": pending}


class TestCompactRoundTrip:
    def test_fold_is_identical_before_and_after(self, spool):
        ids = populate(spool)
        before = view_state(spool.jobs(now=105.0))
        stats = compact(spool)
        assert view_state(spool.jobs(now=105.0)) == before
        assert stats.generation == 1
        assert stats.n_jobs == 4
        assert stats.n_live == 2 and stats.n_terminal == 2
        assert spool.result(ids["done"]) == {"cycles": [1, 2]}

    def test_log_shrinks_to_one_marker_line(self, spool):
        populate(spool)
        compact(spool)
        lines = spool.log_path.read_text().splitlines()
        assert len(lines) == 1
        marker = json.loads(lines[0])
        assert marker["ev"] == "compact" and marker["gen"] == 1

    def test_submission_order_survives(self, spool):
        ids = populate(spool)
        order = list(spool.jobs(now=105.0))
        compact(spool)
        assert list(spool.jobs(now=105.0)) == order
        assert order[0] == ids["done"]

    def test_post_compact_tail_folds_onto_snapshot(self, spool):
        ids = populate(spool)
        compact(spool)
        job = spool.claim("w2", now=105.0)  # running's lease still held
        assert job.id == ids["pending"]
        spool.complete(ids["pending"], "w2", "late", elapsed=0.2)
        views = spool.jobs(now=106.0)
        assert views[ids["pending"]].state == "done"
        assert spool.result(ids["pending"]) == "late"

    def test_dedup_survives_compaction(self, spool):
        ids = populate(spool)
        compact(spool)
        assert spool.submit(spec(start=0, stop=1)) == ids["done"]
        assert spool.jobs()[ids["done"]].state == "done"  # still deduped

    def test_generations_increment_and_fold_stays_stable(self, spool):
        populate(spool)
        compact(spool)
        before = view_state(spool.jobs(now=300.0))
        stats = compact(spool)
        assert stats.generation == 2
        assert stats.n_events_folded == 0  # nothing new since gen 1
        assert view_state(spool.jobs(now=300.0)) == before
        assert read_snapshot(spool.root)["generation"] == 2

    def test_reopen_reads_snapshot_plus_tail(self, spool, tmp_path):
        ids = populate(spool)
        before = view_state(spool.jobs(now=105.0))
        compact(spool)
        reopened = JobSpool.open(tmp_path / "spool")
        assert view_state(reopened.jobs(now=105.0)) == before
        assert reopened.result(ids["done"]) == {"cycles": [1, 2]}


class TestCrashMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_at_every_point_loses_nothing(self, spool, tmp_path, point):
        ids = populate(spool)
        oracle = view_state(spool.jobs(now=105.0))
        with pytest.raises(SimulatedCrash):
            compact(spool, crash_at=point)
        # The "process" died; a fresh open must fold to the oracle.
        survivor = JobSpool.open(tmp_path / "spool")
        assert view_state(survivor.jobs(now=105.0)) == oracle
        assert survivor.result(ids["done"]) == {"cycles": [1, 2]}
        report = verify_spool(survivor.root)
        assert report["ok"], render_verify(report)
        # The spool keeps working: append, fold, then converge via compact.
        claimed = survivor.claim("w9", now=105.0)  # running's lease held
        assert claimed.id == ids["pending"]
        assert survivor.jobs(now=105.0)[ids["pending"]].state == "running"
        stats = compact(survivor)
        assert view_state(survivor.jobs(now=105.0))[ids["pending"]][0] \
            == "running"
        assert stats.generation >= 1
        assert verify_spool(survivor.root)["ok"]

    def test_crash_window_does_not_double_fold_leases(self, spool, tmp_path):
        """New snapshot + old log is the dangerous window: replaying the
        already-folded lease events would inflate n_leases."""
        ids = populate(spool)
        with pytest.raises(SimulatedCrash):
            compact(spool, crash_at="post-snapshot-rename")
        views = JobSpool.open(tmp_path / "spool").jobs(now=105.0)
        assert views[ids["running"]].n_leases == 1  # not 2

    def test_append_after_crash_window_is_not_skipped(self, spool, tmp_path):
        """The snapshot's skip count must not swallow post-crash appends."""
        populate(spool)
        with pytest.raises(SimulatedCrash):
            compact(spool, crash_at="post-snapshot-rename")
        survivor = JobSpool.open(tmp_path / "spool")
        late = survivor.submit(spec(start=7, stop=8))
        assert survivor.jobs()[late].state == "pending"
        compact(survivor)
        assert survivor.jobs()[late].state == "pending"

    def test_unknown_crash_point_rejected(self, spool):
        with pytest.raises(ValueError, match="unknown crash point"):
            compact(spool, crash_at="mid-air")


class TestGC:
    def test_terminal_checkpoints_and_orphan_results_reclaimed(self, spool):
        ids = populate(spool)
        for role in ("done", "failed", "running"):
            path = spool.checkpoint_path(ids[role])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"fp": "x"}\n')
        spool.results.put("0" * 32, {"orphan": True})  # no such job
        stats = compact(spool)
        assert stats.gc_checkpoints == 2  # done + failed; running kept
        assert spool.checkpoint_path(ids["running"]).exists()
        assert not spool.checkpoint_path(ids["done"]).exists()
        assert spool.result(ids["done"]) == {"cycles": [1, 2]}  # kept
        assert spool.result("0" * 32, default="gone") == "gone"

    def test_gc_can_be_disabled(self, spool):
        ids = populate(spool)
        path = spool.checkpoint_path(ids["done"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"fp": "x"}\n')
        stats = compact(spool, CompactionPolicy(gc_checkpoints=False,
                                                gc_results=False))
        assert stats.gc_checkpoints == 0 and stats.gc_results == 0
        assert path.exists()

    def test_retain_terminal_prunes_oldest_and_their_results(self, spool):
        ids = populate(spool)
        stats = compact(spool, CompactionPolicy(retain_terminal=1))
        # done (older) pruned, failed (newer) kept.
        assert stats.n_pruned == 1 and stats.n_terminal == 1
        views = spool.jobs(now=105.0)
        assert ids["done"] not in views
        assert views[ids["failed"]].state == "failed"
        assert spool.result(ids["done"], default="gone") == "gone"
        # A pruned job re-submits as brand new instead of deduping.
        again = spool.submit(spec(start=0, stop=1))
        assert spool.jobs()[again].state == "pending"


class TestPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_log_bytes=0)
        with pytest.raises(ValueError):
            CompactionPolicy(max_events=0)
        with pytest.raises(ValueError):
            CompactionPolicy(retain_terminal=-1)

    def test_should_compact_thresholds(self, spool):
        assert not should_compact(spool)  # empty log, default policy
        populate(spool)
        assert should_compact(spool, CompactionPolicy(max_log_bytes=1))
        assert not should_compact(
            spool, CompactionPolicy(max_log_bytes=None, max_events=4096))
        assert should_compact(
            spool, CompactionPolicy(max_log_bytes=None, max_events=1))

    def test_maybe_compact_respects_threshold(self, spool):
        populate(spool)
        assert maybe_compact(spool) is None  # default thresholds: far away
        stats = maybe_compact(spool, CompactionPolicy(max_log_bytes=1))
        assert stats is not None and stats.generation == 1


class TestReconcile:
    def test_marker_ahead_of_snapshot_raises_raced(self, spool):
        populate(spool)
        compact(spool)
        snap = read_snapshot(spool.root)
        stale = dict(snap, generation=snap["generation"] - 1)
        parsed, _ = spool._parse_log(spool.log_path.read_bytes())
        with pytest.raises(_SnapshotRaced):
            JobSpool._reconcile(stale, parsed)


class TestVerify:
    def test_healthy_spool_verifies_ok(self, spool):
        populate(spool)
        report = verify_spool(spool.root)
        assert report["ok"] and report["schema"] == "repro-spoolverify/1"
        assert "spool OK" in render_verify(report)

    def test_missing_directory_fails(self, tmp_path):
        report = verify_spool(tmp_path / "nowhere")
        assert not report["ok"]
        assert report["checks"][0]["name"] == "spool-dir"

    def test_lost_snapshot_after_swap_fails_generation_check(self, spool):
        populate(spool)
        compact(spool)
        spool.snapshot_path.unlink()  # snapshot rolled back / lost
        report = verify_spool(spool.root)
        assert not report["ok"]
        gen = next(c for c in report["checks"] if c["name"] == "generation")
        assert not gen["passed"]

    def test_missing_result_fails(self, spool):
        ids = populate(spool)
        spool.results._path(ids["done"]).unlink()
        report = verify_spool(spool.root)
        assert not report["ok"]
        res = next(c for c in report["checks"] if c["name"] == "results")
        assert not res["passed"]

    def test_expected_jobs_oracle(self, spool):
        ids = populate(spool)
        # verify_spool folds at real wall-clock time, so the 10s lease
        # taken at t=102 has long expired: the job is claimable (pending).
        ok = verify_spool(spool.root, expect_jobs={
            ids["done"]: "done", ids["failed"]: "failed",
            ids["running"]: "pending", ids["pending"]: "pending"})
        assert ok["ok"]
        bad = verify_spool(spool.root, expect_jobs={
            ids["done"]: "failed",          # state mismatch
            "f" * 32: "done",               # lost
        })
        assert not bad["ok"]
        check = next(c for c in bad["checks"] if c["name"] == "expected-jobs")
        assert "lost" in check["detail"] and "mismatch" in check["detail"]

    def test_interior_corruption_fails_log_and_fold(self, spool):
        populate(spool)
        with open(spool.log_path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"ev": "noop"}) + "\n")
        report = verify_spool(spool.root)
        assert not report["ok"]
        names = {c["name"]: c["passed"] for c in report["checks"]}
        assert not names["log"] and not names["fold"]

    def test_torn_tail_is_informational_not_fatal(self, spool):
        populate(spool)
        with open(spool.log_path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "subm')
        report = verify_spool(spool.root)
        assert report["ok"]
        log = next(c for c in report["checks"] if c["name"] == "log")
        assert "torn tail" in log["detail"]


class TestSnapshotParsing:
    def test_corrupt_snapshot_is_typed(self, spool):
        populate(spool)
        compact(spool)
        spool.snapshot_path.write_text("not json")
        with pytest.raises(ServiceError):
            read_snapshot(spool.root)
        with pytest.raises(ServiceError):
            spool.jobs()

    def test_non_utf8_snapshot_is_typed(self, spool):
        populate(spool)
        compact(spool)
        data = spool.snapshot_path.read_bytes()
        spool.snapshot_path.write_bytes(data[:10] + b"\xff\xfe" + data[10:])
        with pytest.raises(ServiceError, match="corrupt spool snapshot"):
            read_snapshot(spool.root)
        with pytest.raises(ServiceError):
            spool.jobs()

    def test_unknown_snapshot_schema_is_typed(self, spool):
        compact(spool)
        doc = json.loads(spool.snapshot_path.read_text())
        doc["schema"] = "repro-spoolsnap/99"
        spool.snapshot_path.write_text(json.dumps(doc))
        with pytest.raises(ServiceError, match="schema"):
            spool.jobs()
