"""Tests for the seeded disk-fault shim and the layers wired through it."""

import errno
import os

import pytest

from repro.errors import CheckpointError
from repro.robust import DiskFaultInjector, SimulatedCrash
from repro.robust import diskchaos
from repro.util import durable


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    yield
    diskchaos.uninstall()


class TestInjectorDeterminism:
    def test_same_seed_same_faults(self):
        # Only the failing calls matter: a surviving on_write would need a
        # real fd, so keep the rates the only source of outcomes we record.
        inj_a = DiskFaultInjector(seed=7, p_enospc=1.0)
        inj_b = DiskFaultInjector(seed=7, p_enospc=1.0)
        for inj in (inj_a, inj_b):
            for _ in range(5):
                with pytest.raises(OSError):
                    inj.on_write(-1, b"xy")
        assert inj_a.fired == inj_b.fired == {"enospc": 5}
        assert inj_a.calls == inj_b.calls == {"write": 5}

    def test_streams_are_independent_per_op(self):
        inj = DiskFaultInjector(seed=3)
        rolls_w = [inj._roll("write", i) for i in range(20)]
        rolls_f = [inj._roll("fsync", i) for i in range(20)]
        assert rolls_w != rolls_f
        assert rolls_w == [DiskFaultInjector(seed=3)._roll("write", i)
                           for i in range(20)]


class TestDeterministicFaults:
    def test_enospc_at_exact_index(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with diskchaos.injected(DiskFaultInjector(enospc_at=(1,))) as inj:
                assert durable.fs_write(fd, b"aa") == 2
                with pytest.raises(OSError) as ei:
                    durable.fs_write(fd, b"bb")
                assert ei.value.errno == errno.ENOSPC
                assert durable.fs_write(fd, b"cc") == 2
                assert inj.calls == {"write": 3}
                assert inj.fired == {"enospc": 1}
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_bytes() == b"aacc"

    def test_short_write_persists_prefix(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with diskchaos.injected(DiskFaultInjector(short_write_at=(0,))):
                assert durable.fs_write(fd, b"abcdef") == 3
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_bytes() == b"abc"

    def test_torn_crash_writes_prefix_then_raises_base_exception(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with diskchaos.injected(DiskFaultInjector(torn_crash_at=(0,))):
                with pytest.raises(SimulatedCrash):
                    try:
                        durable.fs_write(fd, b"abcdef")
                    except Exception:  # must NOT swallow the crash
                        pytest.fail("SimulatedCrash caught by except Exception")
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_bytes() == b"abc"  # the tear landed

    def test_crash_after_fsync_is_durable_first(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            os.write(fd, b"data")
            with diskchaos.injected(
                    DiskFaultInjector(crash_after_fsync_at=(0,))):
                with pytest.raises(SimulatedCrash):
                    durable.fs_fsync(fd)
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_bytes() == b"data"

    def test_eio_fsync(self, tmp_path):
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with diskchaos.injected(DiskFaultInjector(eio_fsync_at=(0,))):
                with pytest.raises(OSError) as ei:
                    durable.fs_fsync(fd)
                assert ei.value.errno == errno.EIO
        finally:
            os.close(fd)

    def test_rename_fault_leaves_both_paths(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_text("new")
        dst.write_text("old")
        with diskchaos.injected(DiskFaultInjector(rename_at=(0,))):
            with pytest.raises(OSError):
                durable.fs_replace(src, dst)
        assert dst.read_text() == "old"
        assert src.read_text() == "new"
        durable.fs_replace(src, dst)  # passthrough once uninstalled
        assert dst.read_text() == "new"

    def test_injected_scope_always_uninstalls(self):
        with pytest.raises(RuntimeError):
            with diskchaos.injected(DiskFaultInjector()):
                assert diskchaos.active() is not None
                raise RuntimeError("boom")
        assert diskchaos.active() is None

class TestDiskStoreUnderFaults:
    def test_put_failure_is_contained_and_counted(self, tmp_path):
        from repro.cache.disk import DiskStore

        store = DiskStore(tmp_path / "cache")
        with diskchaos.injected(DiskFaultInjector(eio_write_at=(0,))):
            assert store.put("k", {"v": 1}) is False
        assert store.io_errors == 1
        assert store.get("k", default="absent") == "absent"
        assert store.put("k", {"v": 1}) is True
        assert store.get("k") == {"v": 1}

    def test_rename_fault_keeps_old_value_visible(self, tmp_path):
        from repro.cache.disk import DiskStore

        store = DiskStore(tmp_path / "cache")
        assert store.put("k", "old") is True
        with diskchaos.injected(DiskFaultInjector(rename_at=(0,))):
            assert store.put("k", "new") is False
        assert store.get("k") == "old"  # atomic swap never half-applies

    def test_fsync_fault_fails_the_put(self, tmp_path):
        from repro.cache.disk import DiskStore

        store = DiskStore(tmp_path / "cache")
        with diskchaos.injected(DiskFaultInjector(eio_fsync_at=(0,))):
            assert store.put("k", "v") is False
        assert store.get("k", default="absent") == "absent"

    def test_directory_fsync_fault_fails_the_put(self, tmp_path):
        # fsync 0 is the entry's own; fsync 1 makes its rename durable.
        # Without it a power cut could keep the spool's fsynced "done"
        # event while losing the result file's directory entry.
        from repro.cache.disk import DiskStore

        store = DiskStore(tmp_path / "cache")
        with diskchaos.injected(DiskFaultInjector(eio_fsync_at=(1,))) as inj:
            assert store.put("k", "v") is False
        assert inj.fired == {"eio_fsync": 1}
        assert store.io_errors == 1


class TestJournalUnderFaults:
    def test_append_failure_is_typed(self, tmp_path):
        from repro.parallel.resilient import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        try:
            journal.record("fp0", {"ok": 1})
            with diskchaos.injected(DiskFaultInjector(enospc_at=(0,))):
                with pytest.raises(CheckpointError,
                                   match="journal append failed"):
                    journal.record("fp1", {"ok": 2})
        finally:
            journal.close()
        # The surviving journal still replays its intact records.
        resumed = CheckpointJournal(tmp_path / "j.jsonl", resume=True)
        try:
            assert resumed.completed() == {"fp0": {"ok": 1}}
        finally:
            resumed.close()

    def test_short_write_is_resumed_and_the_record_intact(self, tmp_path):
        from repro.parallel.resilient import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        with diskchaos.injected(DiskFaultInjector(short_write_at=(0,))) as inj:
            journal.record("fp0", {"ok": 1})
        journal.close()
        assert inj.fired == {"short_write": 1}
        assert inj.calls["write"] == 2  # prefix landed, remainder resumed
        resumed = CheckpointJournal(tmp_path / "j.jsonl", resume=True)
        assert resumed.completed() == {"fp0": {"ok": 1}}
        resumed.close()

    def test_failed_append_does_not_poison_later_records(self, tmp_path):
        # A prefix of "b" lands, then the disk fills: the fragment must be
        # repaired by the next append, not smeared into "c".
        from repro.parallel.resilient import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.record("a", 1)
        with diskchaos.injected(
                DiskFaultInjector(short_write_at=(0,), enospc_at=(1,))):
            with pytest.raises(CheckpointError, match="append failed"):
                journal.record("b", 2)
        journal.record("c", 3)
        journal.record("d", 4)
        journal.close()
        resumed = CheckpointJournal(tmp_path / "j.jsonl", resume=True)
        assert resumed.completed() == {"a": 1, "c": 3, "d": 4}
        resumed.close()


class TestDocumentWritersUnderFaults:
    """Whole-document writers go through one atomic replace."""

    def test_failed_rename_keeps_the_previous_document(self, tmp_path):
        from repro.loadgen.report import write_report
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        writers = {
            "report.json": lambda p: write_report(p, {"n": 2}),
            "metrics.json": lambda p: registry.export(p, extra={"n": 2}),
        }
        for name, write in writers.items():
            path = tmp_path / name
            path.write_bytes(b'{"n": 1}\n')
            with diskchaos.injected(DiskFaultInjector(rename_at=(0,))):
                with pytest.raises(OSError):
                    write(path)
            assert path.read_bytes() == b'{"n": 1}\n', name
            assert not list(tmp_path.glob(".*.tmp"))  # temp cleaned up
            write(path)  # once uninstalled the replace lands
            assert b'"n": 2' in path.read_bytes()
