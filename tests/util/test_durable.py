"""The durable-file primitives and the read policies built on them."""

import json

import pytest

from repro.errors import CheckpointError, ServiceError
from repro.parallel.resilient import CheckpointJournal
from repro.robust import DiskFaultInjector, diskchaos
from repro.service import JobSpec, JobSpool
from repro.service.compaction import verify_spool
from repro.util import durable


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    yield
    diskchaos.uninstall()


class TestReplaceFile:
    @pytest.mark.parametrize("sync", [True, False])
    def test_rename_fault_keeps_old_content_and_no_temp(self, tmp_path, sync):
        target = tmp_path / "f.json"
        durable.replace_file(target, b"old\n", sync=sync)
        with diskchaos.injected(DiskFaultInjector(rename_at=(0,))) as inj:
            with pytest.raises(OSError):
                durable.replace_file(target, b"new\n", sync=sync)
        assert inj.fired == {"rename": 1}
        assert target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]

    def test_unsynced_write_only_routes_the_rename(self, tmp_path):
        with diskchaos.injected(DiskFaultInjector()) as inj:
            durable.replace_file(tmp_path / "a.json", b"x\n", sync=False)
            durable.replace_file(tmp_path / "b.json", b"x\n", sync=True)
        # sync=False: one rename, no write/fsync; sync=True: all three,
        # plus the directory fsync.
        assert inj.calls == {"replace": 2, "write": 1, "fsync": 2}

    def test_creates_missing_parent_and_syncs_its_entry(self, tmp_path):
        target = tmp_path / "new" / "dir" / "f.json"
        with diskchaos.injected(DiskFaultInjector()) as inj:
            durable.replace_file(target, b"{}\n", sync=True)
        assert target.read_bytes() == b"{}\n"
        # the file, its directory, and the directory holding the new one
        assert inj.calls["fsync"] == 3


class TestAppendLine:
    def test_resumes_every_short_write(self, tmp_path):
        path = tmp_path / "log.jsonl"
        record = json.dumps({"k": "v" * 40}).encode() + b"\n"
        with diskchaos.injected(DiskFaultInjector(p_short_write=1.0)) as inj:
            assert durable.append_line(path, record) is False
        assert inj.fired["short_write"] > 1
        assert path.read_bytes() == record

    def test_repairs_a_torn_tail_once_and_reports_it(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": ')
        assert durable.append_line(path, b'{"c": 3}\n') is True
        assert durable.append_line(path, b'{"d": 4}\n') is False
        assert path.read_bytes() == b'{"a": 1}\n{"c": 3}\n{"d": 4}\n'

    def test_torn_tail_without_any_newline_is_cut_to_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"torn')
        assert durable.append_line(path, b'{"ok": 1}\n') is True
        assert path.read_bytes() == b'{"ok": 1}\n'


class TestReadLines:
    def test_classifies_every_kind_of_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"i": 0}\n'      # 0: record
            b"\n"              # 1: blank, skipped
            b"[1, 2]\n"        # 2: valid JSON, not an object
            b'{"i": \xff}\n'   # 3: bad UTF-8
            b"not json\n"      # 4: not JSON
            b'{"i": 5}\n'      # 5: record
            b'{"i": 6, "x')    # 6: last line, torn
        log = durable.read_lines(path)
        assert log.records == [(0, {"i": 0}), (5, {"i": 5})]
        assert log.bad == [2, 3, 4]
        assert log.torn is True
        assert log.n_lines == 7

    def test_bad_utf8_in_the_last_line_is_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"i": 0}\n{"i": "\xff')
        log = durable.read_lines(path)
        assert (log.records, log.bad, log.torn) == ([(0, {"i": 0})], [], True)

    def test_intact_file_is_not_torn(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"i": 0}\n{"i": 1}\n')
        log = durable.read_lines(path)
        assert (len(log.records), log.bad, log.torn) == (2, [], False)


class TestCompleteLines:
    def test_unterminated_record_is_not_counted(self):
        log, used = durable.complete_lines(b'{"i": 0}\n{"i": 1}')
        assert (log.records, log.bad, log.torn) == ([(0, {"i": 0})], [], False)
        assert used == len(b'{"i": 0}\n')

    def test_line_indices_start_at_line0(self):
        log, used = durable.complete_lines(b'\n{"i": 4}\n', line0=3)
        assert log.records == [(4, {"i": 4})]
        assert used == 10

    def test_failed_final_line_is_torn_and_not_used(self):
        log, used = durable.complete_lines(b'{"i": 0}\nnot json\n')
        assert (log.records, log.bad, log.torn) == ([(0, {"i": 0})], [], True)
        assert used == len(b'{"i": 0}\n')

    def test_failed_line_before_a_fragment_is_bad(self):
        log, _ = durable.complete_lines(b'{"i": 0}\nnot json\n{"i": 2')
        assert (log.bad, log.torn) == ([1], False)


# -- caller policies over one non-UTF-8 byte ----------------------------------


def _spool_log(tmp_path):
    spool = JobSpool.ensure(tmp_path / "spool")
    for i in range(2):
        spool.submit(JobSpec(kind="sweep", app="gcc", start=i, stop=i + 1,
                             n_instructions=1_000_000))
    return spool.log_path


def _journal(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal(path)
    journal.record("a", 1)
    journal.record("b", 2)
    journal.close()
    return path


def _read_spool(path):
    return len(JobSpool.open(path.parent).jobs())


def _verify_spool(path):
    report = verify_spool(path.parent)
    log = next(c for c in report["checks"] if c["name"] == "log")
    if not log["passed"]:
        raise ServiceError(log["detail"])
    return int(log["detail"].split()[0])  # "<n> event(s) in ..."


def _read_journal(path):
    return CheckpointJournal(path, resume=True).n_completed


READERS = {
    "spool-jobs": (_spool_log, _read_spool, ServiceError),
    "verify-spool": (_spool_log, _verify_spool, ServiceError),
    "journal-resume": (_journal, _read_journal, CheckpointError),
}


@pytest.mark.parametrize("where", ["interior", "tail"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_non_utf8_byte_is_typed_or_torn(tmp_path, reader, where):
    make, read, error = READERS[reader]
    path = make(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b'{"ev": "\xff"}\n{"ok": 1}\n' if where == "interior"
                 else b'{"ev": "\xff')
    if where == "interior":
        with pytest.raises(error, match=r"line.*\b3\b"):
            read(path)
    else:
        assert read(path) == 2  # the torn tail is tolerated
