"""Tests for the durable job spool: fold semantics, leases, backpressure."""

import json
import random
import time

import pytest

from repro.errors import CircuitOpenError, ServiceError, ServiceOverloadError
from repro.obs.metrics import default_registry
from repro.robust import DiskFaultInjector, SimulatedCrash
from repro.robust import diskchaos
from repro.robust.breaker import CircuitBreaker
from repro.service import (
    CompactionPolicy,
    JobSpec,
    JobSpool,
    SpoolConfig,
    compact,
    job_id,
    maybe_compact,
)


def spec(start=0, stop=8, app="gcc", **kw):
    return JobSpec(kind="sweep", app=app, start=start, stop=stop,
                   n_instructions=1_000_000, **kw)


@pytest.fixture()
def spool(tmp_path):
    return JobSpool.ensure(tmp_path / "spool",
                           SpoolConfig(max_depth=3, lease_ttl=10.0))


class TestLifecycle:
    def test_ensure_persists_config(self, tmp_path):
        root = tmp_path / "spool"
        JobSpool.ensure(root, SpoolConfig(max_depth=7, lease_ttl=3.0))
        reopened = JobSpool.open(root)
        assert reopened.config.max_depth == 7
        assert reopened.config.lease_ttl == 3.0

    def test_ensure_without_config_honors_existing(self, tmp_path):
        root = tmp_path / "spool"
        JobSpool.ensure(root, SpoolConfig(max_depth=7))
        again = JobSpool.ensure(root)  # a client joining an existing spool
        assert again.config.max_depth == 7

    def test_open_requires_existing_spool(self, tmp_path):
        with pytest.raises(ServiceError, match="no spool"):
            JobSpool.open(tmp_path / "nowhere")

    def test_job_id_is_content_addressed(self, spool):
        assert job_id(spec()) == job_id(spec())
        assert job_id(spec()) != job_id(spec(start=1))
        jid = spool.submit(spec())
        assert jid == job_id(spec())


class TestSubmit:
    def test_submit_then_pending(self, spool):
        jid = spool.submit(spec())
        job = spool.jobs()[jid]
        assert job.state == "pending"
        assert job.spec.app == "gcc"
        assert spool.depth() == 1

    def test_duplicate_submit_dedups(self, spool):
        a = spool.submit(spec())
        b = spool.submit(spec())
        assert a == b
        assert spool.depth() == 1

    def test_overload_sheds_with_typed_error(self, spool):
        for i in range(3):
            spool.submit(spec(start=i, stop=i + 1))
        with pytest.raises(ServiceOverloadError) as exc_info:
            spool.submit(spec(start=9, stop=10))
        assert exc_info.value.depth == 3
        assert exc_info.value.max_depth == 3
        # Dedup of an already-queued job is not an overload.
        assert spool.submit(spec(start=0, stop=1)) == job_id(spec(start=0, stop=1))

    def test_terminal_jobs_free_queue_slots(self, spool):
        jids = [spool.submit(spec(start=i, stop=i + 1)) for i in range(3)]
        spool.complete(jids[0], "w0", {"ok": True}, elapsed=0.1)
        spool.submit(spec(start=9, stop=10))  # slot freed, accepted
        assert spool.depth() == 3


class TestLeases:
    def test_claim_is_fifo(self, spool):
        first = spool.submit(spec(start=0, stop=1))
        second = spool.submit(spec(start=1, stop=2))
        assert spool.claim("w0", now=100.0).id == first
        assert spool.claim("w1", now=100.0).id == second
        assert spool.claim("w2", now=100.0) is None

    def test_active_lease_blocks_reclaim(self, spool):
        spool.submit(spec())
        job = spool.claim("w0", now=100.0)
        assert job.state == "running"
        assert job.lease_expires == 110.0
        assert spool.claim("w1", now=105.0) is None

    def test_expired_lease_is_redispatched(self, spool):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        again = spool.claim("w1", now=111.0)  # past the 10s ttl
        assert again.id == jid
        assert again.worker == "w1"
        assert again.n_leases == 2
        view = spool.jobs(now=112.0)[jid]
        assert view.n_expired == 1
        assert view.state == "running"

    def test_stale_leases_reports_expired_holders(self, spool):
        jid = spool.submit(spec())
        assert spool.stale_leases(now=100.0) == []  # never leased: not stale
        spool.claim("w0", now=100.0)
        assert spool.stale_leases(now=105.0) == []  # still held
        stale = spool.stale_leases(now=120.0)
        assert [v.id for v in stale] == [jid]


class TestRenewal:
    def test_renew_extends_active_lease(self, spool):
        """A renewing holder keeps ownership past the original TTL."""
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.renew(jid, "w0", now=108.0)  # new expiry: 108 + 10
        assert spool.claim("w1", now=111.0) is None  # would expire unrenewed
        view = spool.jobs(now=111.0)[jid]
        assert view.state == "running"
        assert view.worker == "w0"
        assert view.lease_expires == 118.0
        assert view.n_leases == 1
        assert view.n_expired == 0

    def test_renew_from_preempted_holder_is_ignored(self, spool):
        """Only the current lease holder may extend the lease."""
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.claim("w1", now=111.0)  # w0 expired; re-dispatched to w1
        spool.renew(jid, "w0", now=112.0)  # stale holder wakes up late
        view = spool.jobs(now=112.0)[jid]
        assert view.worker == "w1"
        assert view.lease_expires == 121.0  # w1's lease, untouched

    def test_renew_after_terminal_is_ignored(self, spool):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.complete(jid, "w0", 1, elapsed=0.1)
        spool.renew(jid, "w0", now=105.0)
        assert spool.jobs(now=1e9)[jid].state == "done"


class TestTerminal:
    def test_complete_stores_result(self, spool):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.complete(jid, "w0", {"cycles": [1, 2]}, elapsed=0.5)
        view = spool.jobs()[jid]
        assert view.state == "done"
        assert view.elapsed == 0.5
        assert spool.result(jid) == {"cycles": [1, 2]}
        assert spool.result("unknown", default="x") == "x"

    def test_first_terminal_event_wins(self, spool):
        """A stale holder finishing after re-dispatch must not flip state."""
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.claim("w1", now=111.0)  # w0's lease expired; re-dispatched
        spool.complete(jid, "w1", "fresh", elapsed=0.2)
        spool.fail(jid, "w0", "RuntimeError", "stale holder woke up", 9.0)
        view = spool.jobs()[jid]
        assert view.state == "done"
        assert view.error_type is None
        assert spool.result(jid) == "fresh"

    def test_fail_records_typed_error(self, spool):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.fail(jid, "w0", "JobDeadlineExceeded", "m" * 600, elapsed=1.0)
        view = spool.jobs()[jid]
        assert view.state == "failed"
        assert view.error_type == "JobDeadlineExceeded"
        assert len(view.message) == 500  # truncated for the log

    def test_resubmit_reopens_failed_job(self, spool):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.fail(jid, "w0", "TaskFailed", "boom", elapsed=1.0)
        assert spool.depth() == 0
        assert spool.submit(spec()) == jid
        assert spool.jobs()[jid].state == "pending"

    def test_resubmit_restarts_deadline_and_clock(self, spool):
        """A job that failed its deadline must not re-fail instantly: the
        resubmission's own time and deadline replace the originals."""
        jid = spool.submit(spec(), deadline_s=1e-6)
        first = spool.jobs()[jid]
        spool.claim("w0")
        spool.fail(jid, "w0", "JobDeadlineExceeded", "expired", elapsed=0.0)
        time.sleep(0.01)
        assert spool.submit(spec(), deadline_s=60.0) == jid
        view = spool.jobs()[jid]
        assert view.state == "pending"
        assert view.deadline_s == 60.0
        assert view.submitted_t > first.submitted_t


class TestDurability:
    def test_torn_tail_is_tolerated(self, spool):
        a = spool.submit(spec(start=0, stop=1))
        spool.submit(spec(start=1, stop=2))
        with open(spool.log_path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "subm')  # crash mid-append
        views = spool.jobs()
        assert set(views) >= {a}
        assert len(views) == 2

    def test_mid_file_corruption_is_an_error(self, spool):
        spool.submit(spec(start=0, stop=1))
        with open(spool.log_path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
            fh.write(json.dumps({"ev": "submit", "id": "x",
                                 "spec": spec(start=1, stop=2).as_dict(),
                                 "t": 0.0, "deadline_s": None}) + "\n")
        with pytest.raises(ServiceError, match="corrupt spool log"):
            spool.jobs()

    def test_unterminated_final_line_never_counts(self, spool):
        """A line whose newline never landed is truncated by the next
        append, so counting it would let the fold go backwards."""
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        with open(spool.log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"ev": "done", "id": jid, "worker": "w0",
                                 "elapsed": 0.1, "t": 101.0}))
        assert spool.jobs(now=105.0)[jid].state == "running"
        spool.submit(spec(start=1, stop=2))  # repairs the tail
        assert spool.jobs(now=105.0)[jid].state == "running"
        assert JobSpool.open(spool.root).jobs(now=105.0)[jid].state \
            == "running"

    def test_fold_survives_reopen(self, spool, tmp_path):
        jid = spool.submit(spec())
        spool.claim("w0", now=100.0)
        spool.complete(jid, "w0", 42, elapsed=0.1)
        reopened = JobSpool.open(tmp_path / "spool")
        assert reopened.jobs()[jid].state == "done"
        assert reopened.result(jid) == 42


class TestIncrementalFold:
    """A long-lived instance folds only new bytes, yet always agrees with a
    fresh ``JobSpool.open(root)`` folding snapshot + tail from scratch."""

    NOW = 150.0

    @pytest.fixture()
    def three(self, tmp_path):
        """Two writers and a long-lived reader on one spool directory."""
        root = tmp_path / "spool"
        a = JobSpool.ensure(root, SpoolConfig(max_depth=1000, lease_ttl=10.0))
        return a, JobSpool.open(root), JobSpool.open(root)

    def agree(self, reader, now=NOW):
        fresh = JobSpool.open(reader.root).jobs(now=now)
        assert reader.jobs(now=now) == fresh
        return fresh

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sequences_match_a_fresh_fold(self, three, seed):
        rng = random.Random(seed)
        writers, reader = three[:2], three[2]
        specs = [spec(start=i, stop=i + 1) for i in range(12)]
        ids = [job_id(s) for s in specs]
        for step in range(160):
            w = rng.choice(writers)
            t = 100.0 + step * 0.5
            op = rng.choice(("submit", "submit", "lease", "renew", "done",
                             "fail"))
            jid = rng.choice(ids)
            worker = rng.choice(("w0", "w1"))
            if op == "submit":
                w.submit(rng.choice(specs))
            elif op == "lease":
                w.claim(worker, now=t)
            elif op == "renew":
                w.renew(jid, worker, now=t)
            elif op == "done":
                w.complete(jid, worker, step, elapsed=0.1)
            else:
                w.fail(jid, worker, "TaskFailed", f"boom {step}", 0.1)
            self.agree(reader, now=t)
        assert reader.depth(now=self.NOW) == JobSpool.open(
            reader.root).depth(now=self.NOW)

    def test_compaction_by_another_instance_between_reads(self, three):
        a, b, reader = three
        first = a.submit(spec(start=0, stop=1))
        a.claim("w0", now=100.0)
        a.complete(first, "w0", 1, elapsed=0.1)
        b.submit(spec(start=1, stop=2))
        before = self.agree(reader)
        offset = a.log_path.stat().st_size
        assert maybe_compact(b, CompactionPolicy(max_events=1)) is not None
        assert reader.jobs(now=self.NOW) == before
        b.claim("w1", now=140.0)
        # Grow the new log past the reader's old offset before it reads.
        i = 2
        while a.log_path.stat().st_size <= offset:
            a.submit(spec(start=i, stop=i + 1))
            i += 1
        views = self.agree(reader)
        assert views[job_id(spec(start=1, stop=2))].n_leases == 1
        assert len(views) == i
        compact(a)
        a.submit(spec(start=i, stop=i + 1))
        assert len(self.agree(reader)) == i + 1

    def test_crash_between_the_two_renames(self, three):
        """New snapshot, old log: the reader must take the snapshot's
        ``n_log_lines`` skip count, not fold those lines a second time,
        and must see what the snapshot pruned."""
        a, b, reader = three
        done = a.submit(spec(start=0, stop=1))
        a.claim("w0", now=140.0)
        a.complete(done, "w0", 1, elapsed=0.1)
        running = a.submit(spec(start=1, stop=2))
        a.claim("w0", now=145.0)
        a.submit(spec(start=2, stop=3))
        assert done in self.agree(reader)
        with pytest.raises(SimulatedCrash):
            compact(b, CompactionPolicy(retain_terminal=0),
                    crash_at="post-snapshot-rename")
        views = self.agree(reader)
        assert done not in views
        assert views[running].n_leases == 1  # not 2
        b.claim("w1", now=146.0)
        b.renew(running, "w0", now=146.0)
        views = self.agree(reader)
        assert views[running].lease_expires == 156.0
        compact(a)
        assert self.agree(reader) == views

    def test_torn_tail_then_its_repair(self, three):
        a, b, reader = three
        a.submit(spec(start=0, stop=1))
        self.agree(reader)
        with open(a.log_path, "a", encoding="utf-8") as fh:
            fh.write('{"ev": "subm')  # crash mid-append
        assert len(self.agree(reader)) == 1
        b.submit(spec(start=1, stop=2))  # truncates the fragment first
        assert len(self.agree(reader)) == 2

    def test_bad_final_line_then_interior_raises(self, three):
        a, b, reader = three
        a.submit(spec(start=0, stop=1))
        self.agree(reader)
        with open(a.log_path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")  # complete, but not an event
        assert len(self.agree(reader)) == 1  # tolerated while final
        b.submit(spec(start=1, stop=2))  # now the bad line is interior
        with pytest.raises(ServiceError, match="corrupt spool log"):
            JobSpool.open(a.root).jobs()
        with pytest.raises(ServiceError, match="corrupt spool log"):
            reader.jobs()

    def test_rewritten_shorter_log_is_refolded(self, three):
        a, _, reader = three
        keep = a.submit(spec(start=0, stop=1))
        size = a.log_path.stat().st_size
        a.submit(spec(start=1, stop=2))
        assert len(self.agree(reader)) == 2
        with open(a.log_path, "r+b") as fh:  # same inode, same head line
            fh.truncate(size)
        assert list(self.agree(reader)) == [keep]

    @pytest.mark.parametrize("compacted", [False, True])
    def test_warm_read_decodes_only_the_new_lines(self, three, monkeypatch,
                                                  compacted):
        a, b, reader = three
        for i in range(5):
            a.submit(spec(start=i, stop=i + 1))
        if compacted:
            compact(b)
        reader.jobs()
        k = 7
        for i in range(k):  # 4 events from a, 3 from b
            w = a if i % 2 == 0 else b
            w.submit(spec(start=10 + i, stop=11 + i))
        decoded = []
        real = json.loads

        def counting(text, *args, **kwargs):
            decoded.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        assert len(reader.jobs()) == 12
        assert len(decoded) == k
        decoded.clear()
        reader.depth()
        assert decoded == []


class TestCoordination:
    def test_drain_flag_roundtrip(self, spool):
        assert not spool.drain_requested()
        spool.request_drain()
        spool.request_drain()  # idempotent
        assert spool.drain_requested()
        spool.clear_drain()
        assert not spool.drain_requested()

    def test_heartbeats_roundtrip(self, spool):
        spool.heartbeat("w0", job="abc")
        spool.heartbeat("w1")
        beats = spool.heartbeats()
        assert set(beats) == {"w0", "w1"}
        assert beats["w0"]["job"] == "abc"
        assert "pid" in beats["w0"] and "t" in beats["w0"]

    def test_checkpoint_paths_are_per_job(self, spool):
        a = spool.checkpoint_path("aaaa")
        b = spool.checkpoint_path("bbbb")
        assert a != b
        assert a.parent == b.parent

    def test_malformed_heartbeat_is_skipped_and_counted(self, spool):
        """Torn/garbage heartbeat files feed the shared malformed-lines
        ledger instead of being silently swallowed."""
        spool.heartbeat("w0")
        hb_dir = spool.root / "hb"
        (hb_dir / "torn.json").write_text('{"pid": 12')
        (hb_dir / "scalar.json").write_text('42\n')
        counter = default_registry().counter("obs.reader.malformed_lines")
        before = counter.value
        beats = spool.heartbeats()
        assert set(beats) == {"w0"}
        assert counter.value == before + 2


class TestDiskFaults:
    """The _append short-write resume loop and typed write degradation."""

    @pytest.fixture(autouse=True)
    def _clean_shim(self):
        yield
        diskchaos.uninstall()

    def test_short_write_is_resumed_not_torn(self, spool):
        with diskchaos.injected(DiskFaultInjector(short_write_at=(0,))) as inj:
            jid = spool.submit(spec())
        assert inj.fired == {"short_write": 1}
        assert inj.calls["write"] == 2  # prefix landed, remainder resumed
        lines = spool.log_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["id"] == jid  # one intact record
        assert spool.jobs()[jid].state == "pending"

    def test_repeated_short_writes_still_drain(self, spool):
        # Every call is short until the tail is a single byte; the loop
        # must keep resuming until the record is fully on disk.
        with diskchaos.injected(DiskFaultInjector(p_short_write=1.0)):
            jid = spool.submit(spec())
        assert json.loads(spool.log_path.read_text())["id"] == jid

    def test_enospc_fails_typed_and_nothing_lands(self, spool):
        with diskchaos.injected(DiskFaultInjector(enospc_at=(0,))):
            with pytest.raises(ServiceError, match="append failed"):
                spool.submit(spec())
        assert spool.jobs() == {}
        jid = spool.submit(spec())  # disk healthy again
        assert spool.jobs()[jid].state == "pending"

    def test_enospc_mid_record_leaves_repairable_tear(self, spool):
        """Prefix lands, then the disk fills: the fragment must read as a
        torn tail and the next append must truncate it away."""
        counter = default_registry().counter("service.spool.torn_repaired")
        before = counter.value
        with diskchaos.injected(
                DiskFaultInjector(short_write_at=(0,), enospc_at=(1,))):
            with pytest.raises(ServiceError, match="append failed"):
                spool.submit(spec(start=0, stop=1))
        assert not spool.log_path.read_text().endswith("\n")  # torn
        assert spool.jobs() == {}  # tolerated on read
        other = spool.submit(spec(start=1, stop=2))  # repairs, then appends
        assert counter.value == before + 1
        views = spool.jobs()
        assert set(views) == {other}
        assert all(line.strip() for line in
                   spool.log_path.read_text().splitlines())

    def test_torn_crash_mid_append_recovers_on_reopen(self, spool, tmp_path):
        with diskchaos.injected(DiskFaultInjector(torn_crash_at=(0,))):
            with pytest.raises(SimulatedCrash):
                spool.submit(spec())
        survivor = JobSpool.open(tmp_path / "spool")
        assert survivor.jobs() == {}  # unacknowledged submit: not a job
        jid = survivor.submit(spec())
        assert survivor.jobs()[jid].state == "pending"

    def test_fsync_failure_is_a_failed_append(self, spool):
        with diskchaos.injected(DiskFaultInjector(eio_fsync_at=(0,))):
            with pytest.raises(ServiceError, match="append failed"):
                spool.submit(spec())

    def test_write_breaker_opens_read_only_mode(self, tmp_path):
        spool = JobSpool(
            tmp_path / "s",
            write_breaker=CircuitBreaker("spool-write:test",
                                         failure_threshold=3,
                                         reset_timeout=0.05))
        with diskchaos.injected(DiskFaultInjector(eio_write_at=(0, 1, 2))):
            for i in range(3):
                with pytest.raises(ServiceError, match="append failed"):
                    spool.submit(spec(start=i, stop=i + 1))
            # Breaker open: shed without touching the sick disk at all.
            with pytest.raises(CircuitOpenError, match="read-only mode"):
                spool.submit(spec(start=9, stop=10))
        assert isinstance(CircuitOpenError("x"), ServiceError)  # typed shed
        assert spool.jobs() == {}  # reads still work in read-only mode
        time.sleep(0.06)  # reset timeout: half-open probe admitted
        jid = spool.submit(spec(start=9, stop=10))
        assert spool.jobs()[jid].state == "pending"
        assert spool.write_breaker.state == "closed"

    def test_heartbeat_write_failure_is_counted_not_fatal(self, spool):
        counter = default_registry().counter(
            "service.heartbeat.write_failures")
        before = counter.value
        with diskchaos.injected(DiskFaultInjector(rename_at=(0,))):
            spool.heartbeat("w0")  # must not raise
        assert counter.value == before + 1
        assert spool.heartbeats() == {}
