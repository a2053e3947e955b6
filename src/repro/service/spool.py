"""Durable on-disk job queue: JSONL event spool with leases and admission.

The spool is the service's single source of truth, designed so that any
process — supervisor, worker shard, submitting client, ``repro jobs``, the
doctor — can open the same directory and agree on the queue state, and so
that no single crash (client, worker, or daemon; exception or SIGKILL) can
lose an accepted job or corrupt the log.

Layout of a spool directory::

    spool.jsonl        append-only event log (the live tail of the queue)
    spoolsnap.json     pre-folded snapshot of compacted history (§ below)
    spool.lock         advisory flock serializing appends and claims
    config.json        admission/lease settings (written by the daemon)
    results/           content-addressed job results (checksummed DiskStore)
    checkpoints/       per-job checkpoint journals (resume after crashes)
    hb/                worker heartbeat files ({pid, t, job}, atomic writes)
    DRAIN              drain flag: present => stop claiming new jobs

**Events, not states.** The log records immutable facts — ``submit``,
``lease``, ``renew``, ``done``, ``fail`` — one JSON object per line; the
current state of a job is a pure fold over its events
(:meth:`JobSpool.jobs`). Appends happen under the flock through
:func:`repro.util.durable.append_line`, so a line is either fully present
or (after a crash mid-write) a torn tail that the fold tolerates exactly
like :class:`~repro.parallel.CheckpointJournal` does, and that the next
append repairs before writing.

**Snapshot + tail.** An unbounded log would make every fold O(history).
:mod:`repro.service.compaction` periodically folds the log into a
schema-versioned ``repro-spoolsnap/1`` snapshot (``spoolsnap.json``,
atomically swapped, generation-counted) and resets the log to a one-line
``compact`` marker. The marker's generation ties the tail to its snapshot;
a crash between the two swap renames leaves a detectable, automatically
reconciled state (the snapshot records how many log lines it folded).

**Incremental folds.** Each :class:`JobSpool` keeps its folded records
between reads, with the byte offset just past the last log line it folded
and a key that changes on every compaction: the snapshot's generation plus
the log's inode and head line. A read stats the snapshot, checks the key,
and parses only the bytes appended since its last read, so a warm
operation costs O(new events) in JSON decoding, not O(events since the
last compaction) — up to the 4,096-event auto-compaction threshold. A
cold instance, a changed key (a compaction by any process, or a crash
between its renames), a shrunken log, or new bytes ending in a torn or
unparsable line rebuild from *snapshot + tail* with the same line parser
(:meth:`JobSpool._refresh`). An event counts only once its newline has
landed.

**Leases, not assignments.** Claiming a job appends a ``lease`` event with
a wall-clock expiry; a live worker extends it from its heartbeat path with
``renew`` events (:meth:`JobSpool.renew`), so a long job is never
re-dispatched out from under a healthy holder. A worker that dies mid-job
simply stops renewing; once the lease expires the job is claimable again
(re-dispatch), and the per-job checkpoint journal plus the
content-addressed result store make the re-execution idempotent.
``done``/``fail`` from a stale lease holder is harmless: the fold keeps
the first terminal event.

**Admission control.** ``submit`` sheds load instead of queueing without
bound: when pending+running depth reaches ``max_depth`` it raises the typed
:class:`~repro.errors.ServiceOverloadError` (its own CLI exit code), so an
overloaded service answers "try later" in bounded time. Submitting a spec
that is already queued, running, or done is *free* — the job id is a
content fingerprint, so concurrent tenants share one execution and one
cached result; resubmitting a *failed* job re-opens it.

**Disk-fault degradation.** Every append goes through a write circuit
breaker, and :mod:`repro.robust.diskchaos` can fault every step: an append
that fails (ENOSPC, EIO) surfaces as a typed
:class:`~repro.errors.ServiceError`, and repeated failures open the
breaker, putting the spool in *read-only mode* — further mutations shed
with :class:`~repro.errors.CircuitOpenError` until the breaker half-opens
— instead of wedging every shard on a sick disk.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.cache.disk import DiskStore
from repro.errors import CircuitOpenError, ServiceError, ServiceOverloadError
from repro.obs.metrics import default_registry as _metrics
from repro.robust.breaker import CircuitBreaker
from repro.service.jobs import JobSpec, JobView, job_id
from repro.util import durable
from repro.util.locking import FileLock

__all__ = [
    "COMPACT_EV",
    "SNAPSHOT_NAME",
    "SNAPSHOT_SCHEMA",
    "SPOOL_SCHEMA",
    "JobSpool",
    "SpoolConfig",
    "fold_events",
    "read_snapshot",
    "snapshot_base",
    "snapshot_record",
]

SPOOL_SCHEMA = "repro-spool/1"

#: Schema of the pre-folded compaction snapshot (``spoolsnap.json``).
SNAPSHOT_SCHEMA = "repro-spoolsnap/1"
SNAPSHOT_NAME = "spoolsnap.json"

#: Event kind of the one-line marker compaction leaves as the new log head.
#: Carries no ``id``, so every fold (here and in ``repro.obs``) skips it.
COMPACT_EV = "compact"

_TERMINAL = ("done", "fail")

#: Fields of one folded job record, in snapshot serialization order.
_RECORD_FIELDS = (
    "trace_id", "submitted_t", "deadline_s", "worker", "expires",
    "n_leases", "n_expired", "terminal", "error_type", "message", "elapsed",
)


@dataclass(frozen=True)
class SpoolConfig:
    """Admission/lease settings shared by every process using a spool."""

    max_depth: int = 64
    lease_ttl: float = 30.0

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {self.lease_ttl}")

    def as_dict(self) -> dict[str, Any]:
        return {"schema": SPOOL_SCHEMA, "max_depth": self.max_depth,
                "lease_ttl": self.lease_ttl}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SpoolConfig":
        return cls(max_depth=int(d.get("max_depth", cls.max_depth)),
                   lease_ttl=float(d.get("lease_ttl", cls.lease_ttl)))


# -- the fold ----------------------------------------------------------------
# Module-level so compaction folds with byte-for-byte the same semantics as
# the live queue: a snapshot is nothing but this fold, persisted.


def _new_job_record(ev: dict[str, Any], jid: str) -> dict[str, Any]:
    return {
        "spec": JobSpec.from_dict(ev["spec"]),
        # Older logs predate trace stamping; the id *is* the trace id by
        # construction, so falling back to it keeps correlation working
        # across the upgrade.
        "trace_id": str(ev.get("trace_id") or jid),
        "submitted_t": float(ev.get("t", 0.0)),
        "deadline_s": ev.get("deadline_s"),
        "worker": None, "expires": None,
        "n_leases": 0, "n_expired": 0,
        "terminal": None, "error_type": None,
        "message": None, "elapsed": None,
    }


def _fold_event(raw: dict[str, dict[str, Any]], ev: dict[str, Any]) -> None:
    """Apply one event to the folded state (events without an id: no-ops)."""
    kind, jid = ev.get("ev"), ev.get("id")
    if not jid:
        return
    rec = raw.get(jid)
    if kind == "submit":
        if rec is None:
            raw[jid] = _new_job_record(ev, jid)
        elif rec["terminal"] == "fail":
            # Resubmission re-opens a failed job on fresh terms: the
            # submission clock and deadline restart now, so a job that
            # failed with JobDeadlineExceeded does not instantly re-fail
            # against its long-expired original deadline.
            rec.update(terminal=None, error_type=None, message=None,
                       worker=None, expires=None,
                       submitted_t=float(ev.get("t", rec["submitted_t"])),
                       deadline_s=ev.get("deadline_s"))
    elif rec is None:
        return  # lease/done/fail for an unknown id: ignore
    elif kind == "lease":
        if rec["n_leases"] > 0 and rec["terminal"] is None:
            rec["n_expired"] += 1  # a re-lease implies expiry
        rec["n_leases"] += 1
        rec["worker"] = ev.get("worker")
        rec["expires"] = float(ev.get("expires", 0.0))
    elif kind == "renew":
        # Heartbeat-path lease extension; only the current holder may
        # extend (a preempted worker's late renew is ignored, exactly
        # like its late terminal event would be).
        if rec["terminal"] is None and rec["worker"] == ev.get("worker"):
            rec["expires"] = float(ev.get("expires", rec["expires"] or 0.0))
    elif kind in _TERMINAL and rec["terminal"] is None:
        rec["terminal"] = kind
        rec["elapsed"] = ev.get("elapsed")
        if kind == "fail":
            rec["error_type"] = ev.get("error_type")
            rec["message"] = ev.get("message")


def fold_events(events: Any,
                base: dict[str, dict[str, Any]] | None = None,
                ) -> dict[str, dict[str, Any]]:
    """Fold an event stream onto ``base`` (mutated and returned)."""
    raw = base if base is not None else {}
    for ev in events:
        _fold_event(raw, ev)
    return raw


# -- snapshot (read side; the write side lives in service.compaction) --------


def snapshot_record(jid: str, rec: dict[str, Any]) -> dict[str, Any]:
    """Serialize one folded job record for a snapshot (JSON-safe)."""
    doc: dict[str, Any] = {"id": jid, "spec": rec["spec"].as_dict()}
    for field in _RECORD_FIELDS:
        doc[field] = rec[field]
    return doc


def snapshot_base(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Inflate a snapshot document back into the fold's base state."""
    base: dict[str, dict[str, Any]] = {}
    for job in doc.get("jobs", ()):
        jid = str(job.get("id") or "")
        spec_doc = job.get("spec")
        if not jid or not isinstance(spec_doc, dict):
            raise ServiceError(
                f"corrupt spool snapshot: job entry missing id/spec ({job!r})")
        rec: dict[str, Any] = {"spec": JobSpec.from_dict(spec_doc)}
        for field in _RECORD_FIELDS:
            rec[field] = job.get(field)
        rec["trace_id"] = str(rec["trace_id"] or jid)
        rec["submitted_t"] = float(rec["submitted_t"] or 0.0)
        rec["n_leases"] = int(rec["n_leases"] or 0)
        rec["n_expired"] = int(rec["n_expired"] or 0)
        base[jid] = rec
    return base


def read_snapshot(root: str | os.PathLike[str]) -> dict[str, Any] | None:
    """Load ``spoolsnap.json`` (None when the spool was never compacted).

    A snapshot that exists but cannot be parsed, or carries an unknown
    schema, raises :class:`~repro.errors.ServiceError`: the spool's folded
    history is unreadable, which is corruption, not a fresh start.
    """
    path = Path(root) / SNAPSHOT_NAME
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ServiceError(f"unreadable spool snapshot {path}: {exc}") from exc
    try:
        doc = json.loads(data.decode("utf-8"))  # UnicodeDecodeError is a ValueError
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:
        raise ServiceError(f"corrupt spool snapshot {path}: {exc}") from exc
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise ServiceError(
            f"unsupported spool snapshot schema {doc.get('schema')!r} "
            f"in {path} (expected {SNAPSHOT_SCHEMA})")
    return doc


def _job_state(rec: dict[str, Any], now: float) -> str:
    """One folded record's lifecycle state (one of ``JOB_STATES``)."""
    if rec["terminal"] == "done":
        return "done"
    if rec["terminal"] == "fail":
        return "failed"
    if rec["n_leases"] > 0 and rec["expires"] is not None \
            and rec["expires"] > now:
        return "running"
    return "pending"


def _job_view(jid: str, rec: dict[str, Any], now: float) -> JobView:
    return JobView(
        id=jid, spec=rec["spec"], state=_job_state(rec, now),
        submitted_t=rec["submitted_t"], deadline_s=rec["deadline_s"],
        worker=rec["worker"], lease_expires=rec["expires"],
        n_leases=rec["n_leases"], n_expired=rec["n_expired"],
        error_type=rec["error_type"], message=rec["message"],
        elapsed=rec["elapsed"], trace_id=rec["trace_id"],
    )


class _Fold:
    """A spool's folded records and how far into which log they reach."""

    def __init__(self, key: tuple[Any, ...], raw: dict[str, dict[str, Any]],
                 skip: int) -> None:
        self.key = key        # (snapshot generation, log inode, log head line)
        self.raw = raw        # id -> folded record, submission order
        self.skip = skip      # log lines below this index are in the snapshot
        self.offset = 0       # bytes through the last folded log line
        self.n_lines = 0      # index of the log line starting at offset
        self.n_events = 0     # tail events folded onto the snapshot

    def add(self, records: list[tuple[int, dict[str, Any]]],
            data: bytes) -> None:
        """Fold ``records``, parsed from ``data`` (the bytes past offset)."""
        events = [ev for ln, ev in records if ln >= self.skip]
        fold_events(events, self.raw)
        self.n_events += len(events)
        self.offset += len(data)
        self.n_lines += data.count(b"\n")


class _SnapshotRaced(Exception):
    """Internal: a compaction swapped files between our two reads; retry."""


class JobSpool:
    """One spool directory: durable queue + result store + heartbeats."""

    def __init__(self, root: str | os.PathLike[str],
                 config: SpoolConfig | None = None,
                 write_breaker: CircuitBreaker | None = None) -> None:
        self.root = Path(root)
        self.log_path = self.root / "spool.jsonl"
        self.snapshot_path = self.root / SNAPSHOT_NAME
        self.config_path = self.root / "config.json"
        self.config = config if config is not None else SpoolConfig()
        self.results = DiskStore(self.root / "results")
        self._lock = FileLock(self.root / "spool.lock")
        #: Guards every log append: repeated write failures (full/sick disk)
        #: open it and the spool degrades to read-only shedding
        #: (:class:`~repro.errors.CircuitOpenError`) instead of wedging.
        self.write_breaker = write_breaker if write_breaker is not None else \
            CircuitBreaker(f"spool-write:{self.root.name}",
                           failure_threshold=3, reset_timeout=5.0)
        #: The folded state between reads (see :meth:`_refresh`), and the
        #: snapshot last read with the stat signature it was read at.
        self._fold: _Fold | None = None
        self._snap: tuple[Any, dict[str, Any] | None] | None = None
        self._fold_mutex = threading.Lock()

    # -- construction --------------------------------------------------------

    @classmethod
    def ensure(cls, root: str | os.PathLike[str],
               config: SpoolConfig | None = None) -> "JobSpool":
        """Open ``root`` as a spool, creating/refreshing its config.

        With ``config=None`` an existing ``config.json`` wins and a missing
        one gets defaults; an explicit config always (re)writes the file —
        that is how ``repro serve`` establishes the admission settings every
        client then honours.
        """
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        spool = cls(root, config=config)
        if config is None and spool.config_path.exists():
            spool.config = cls._read_config(spool.config_path)
        else:
            durable.replace_file(
                spool.config_path,
                (json.dumps(spool.config.as_dict(), indent=2) + "\n").encode(),
                sync=False)
        return spool

    @classmethod
    def open(cls, root: str | os.PathLike[str]) -> "JobSpool":
        """Open an existing spool, honouring its on-disk config."""
        root = Path(root)
        if not root.is_dir():
            raise ServiceError(f"no spool directory at {root}")
        config = (cls._read_config(root / "config.json")
                  if (root / "config.json").exists() else SpoolConfig())
        return cls(root, config=config)

    @staticmethod
    def _read_config(path: Path) -> SpoolConfig:
        try:
            return SpoolConfig.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise ServiceError(f"unreadable spool config {path}: {exc}") from exc

    # -- event log -----------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        # Caller holds the flock; append_line repairs a torn tail first.
        line = json.dumps(record, sort_keys=True) + "\n"
        if durable.append_line(self.log_path, line.encode("utf-8")):
            _metrics().counter("service.spool.torn_repaired").inc()

    def _guarded_append(self, record: dict[str, Any]) -> None:
        """Append with typed degradation: breaker-gated, OSError -> typed.

        Raises :class:`~repro.errors.CircuitOpenError` while the write
        breaker is open (read-only mode) and
        :class:`~repro.errors.ServiceError` on an append the disk refused —
        the event did not land, so the caller's state transition did not
        happen. Both are shed conditions, never shard-fatal.
        """
        breaker = self.write_breaker
        if not breaker.allow():
            _metrics().counter("service.spool.write_shed").inc()
            raise CircuitOpenError(
                f"spool {self.root} is in read-only mode: {breaker.name} "
                f"open after repeated append failures; retry in "
                f"{breaker.retry_after():.1f}s",
                breaker=breaker.name, retry_after=breaker.retry_after())
        try:
            self._append(record)
        except OSError as exc:
            breaker.record_failure()
            _metrics().counter("service.spool.write_errors").inc()
            raise ServiceError(
                f"spool append failed at {self.log_path}: {exc}") from exc
        breaker.record_success()

    def _parse_log(self, data: bytes, line0: int = 0,
                   ) -> tuple[list[tuple[int, dict[str, Any]]], int]:
        """Parse a chunk of the log: ``([(lineno, event), ...], n_used)``.

        ``data`` starts on a line boundary whose 0-based index is ``line0``;
        ``n_used`` counts the bytes through the last line folded. An event
        counts only once its newline has landed: an unterminated final
        fragment is a crash mid-append (or an append in flight) that the
        next append truncates, so folding it would let a later read go
        backwards. A final line that is not a JSON object is tolerated the
        same way; one with anything after it is interior corruption and
        raises — an event log with a hole in the middle has lost history
        no fold can recover.
        """
        log, used = durable.complete_lines(data, line0)
        if log.bad:
            raise ServiceError(
                f"corrupt spool log {self.log_path} at line "
                f"{log.bad[0] + 1}: not a UTF-8 JSON object")
        return log.records, used

    @staticmethod
    def _reconcile(snap: dict[str, Any] | None,
                   parsed: list[tuple[int, dict[str, Any]]],
                   ) -> tuple[dict[str, dict[str, Any]], int]:
        """Pair a snapshot with the log it belongs to: ``(base, skip)``.

        The tail to fold onto ``base`` is every log line whose index is at
        least ``skip``. Compaction renames the snapshot *before* swapping
        the log, so three on-disk states are possible and all reconcile
        without locking:

        * log starts with a ``compact`` marker of the snapshot's generation
          — the normal state; the tail is everything after the marker.
        * log predates the snapshot's swap (crash in the window between the
          two renames, or marker of an older generation): the snapshot
          says how many log lines it folded (``n_log_lines``); the tail is
          every line past that count.
        * marker generation *newer* than the snapshot — impossible on
          stable disk, so our snapshot read must be stale (a compaction
          swapped both files between our two reads): raise
          :class:`_SnapshotRaced` and re-read.
        """
        if snap is None:
            return {}, 0
        gen = int(snap.get("generation", 0))
        if parsed and parsed[0][0] == 0 \
                and parsed[0][1].get("ev") == COMPACT_EV:
            marker_gen = int(parsed[0][1].get("gen", -1))
            if marker_gen == gen:
                return snapshot_base(snap), 1
            if marker_gen > gen:
                raise _SnapshotRaced(
                    f"log marker generation {marker_gen} ahead of "
                    f"snapshot generation {gen}")
        return snapshot_base(snap), int(snap.get("n_log_lines", 0))

    def _snapshot(self) -> dict[str, Any] | None:
        """:func:`read_snapshot`, re-read only when the file was replaced.

        Compaction swaps the snapshot in by rename, so a new snapshot is a
        new (inode, size, mtime) — a stat per read instead of a parse.
        """
        try:
            st = self.snapshot_path.stat()
            sig: tuple[int, int, int] | None = (
                st.st_ino, st.st_size, st.st_mtime_ns)
        except OSError:
            sig = None
        if self._snap is None or self._snap[0] != sig:
            self._snap = (sig, read_snapshot(self.root))
        return self._snap[1]

    def _records(self) -> dict[str, dict[str, Any]]:
        """The folded job records, caught up with the log (do not mutate).

        Lock-free read: when a concurrent compaction swaps the snapshot and
        log between our two reads, the generation mismatch is detected and
        the read retried (the swap itself is two atomic renames, so every
        individual read sees a complete file).
        """
        with self._fold_mutex:
            for _ in range(5):
                try:
                    return self._refresh()
                except _SnapshotRaced:
                    self._snap = None  # re-read it, whatever its stat says
        raise ServiceError(
            f"spool {self.root} kept compacting underfoot; "
            "snapshot/log reads never converged")

    def _refresh(self) -> dict[str, dict[str, Any]]:
        """Fold the log bytes appended since the last read onto the cache.

        The cache is keyed by the snapshot generation and the log's
        identity (inode and head line: an inode number alone can be reused
        after a rename). It is rebuilt from snapshot + tail when the key
        changed (a compaction, or a crash between its two renames), the
        log shrank, or the new bytes end in a torn or unparsable line.
        """
        snap = self._snapshot()
        gen = int(snap.get("generation", 0)) if snap else 0
        try:
            fh = open(self.log_path, "rb")
        except FileNotFoundError:  # nothing appended yet
            self._fold = None
            return self._reconcile(snap, [])[0]
        with fh:
            st = os.fstat(fh.fileno())
            head = fh.readline()
            key = (gen, st.st_ino, head if head.endswith(b"\n") else b"")
            fold = self._fold
            if fold is not None and fold.key == key \
                    and st.st_size >= fold.offset:
                fh.seek(fold.offset)
                data = fh.read()
                records, used = self._parse_log(data, fold.n_lines)
                if used == len(data):
                    try:
                        fold.add(records, data)
                    except BaseException:
                        self._fold = None  # half-applied: rebuild next read
                        raise
                    return fold.raw
            fh.seek(0)
            data = fh.read()
        records, used = self._parse_log(data)
        base, skip = self._reconcile(snap, records)
        fold = _Fold(key, base, skip)
        fold.add(records, data[:used])
        self._fold = fold
        return fold.raw

    def jobs(self, now: float | None = None) -> dict[str, JobView]:
        """Fold snapshot + tail into id -> :class:`JobView`, submit order."""
        now = time.time() if now is None else now
        return {jid: _job_view(jid, rec, now)
                for jid, rec in self._records().items()}

    def depth(self, now: float | None = None) -> int:
        """Jobs currently occupying the queue (pending + running)."""
        now = time.time() if now is None else now
        return sum(1 for rec in self._records().values()
                   if _job_state(rec, now) in ("pending", "running"))

    # -- queue operations ----------------------------------------------------

    def submit(self, spec: JobSpec, deadline_s: float | None = None) -> str:
        """Accept (or dedup) a job; returns its id.

        Raises :class:`~repro.errors.ServiceOverloadError` when the queue
        is at ``max_depth`` — typed load shedding, never silent queueing
        past the bound.
        """
        jid = job_id(spec)
        with self._lock:
            now = time.time()
            records = self._records()
            existing = records.get(jid)
            if existing is not None and _job_state(existing, now) != "failed":
                _metrics().counter("service.jobs.deduped").inc()
                return jid
            depth = sum(1 for rec in records.values()
                        if _job_state(rec, now) in ("pending", "running"))
            if depth >= self.config.max_depth:
                _metrics().counter("service.jobs.shed").inc()
                raise ServiceOverloadError(
                    f"queue depth {depth} is at its bound "
                    f"{self.config.max_depth}; job rejected "
                    f"({spec.summary()}) — retry later",
                    depth=depth, max_depth=self.config.max_depth)
            # trace_id == job id: the distributed trace of a job IS the job,
            # so dedup'd submissions, crash re-dispatch, and failed-job
            # resubmission all land in one correlated timeline.
            self._guarded_append({"ev": "submit", "id": jid,
                                  "spec": spec.as_dict(),
                                  "t": time.time(), "deadline_s": deadline_s,
                                  "trace_id": jid})
            _metrics().counter("service.jobs.submitted").inc()
            _metrics().gauge("service.queue.depth").set(depth + 1)
        return jid

    def claim(self, worker: str, now: float | None = None) -> JobView | None:
        """Lease the oldest claimable job to ``worker`` (None: queue idle).

        Claimable means pending — never submitted to a worker, or every
        previous lease expired (the holder crashed or hung). Expired-lease
        re-dispatch is counted in ``service.lease.expired``.
        """
        now = time.time() if now is None else now
        with self._lock:
            pending = [(jid, rec) for jid, rec in self._records().items()
                       if _job_state(rec, now) == "pending"]
            if not pending:
                return None
            jid, rec = min(pending, key=lambda item: item[1]["submitted_t"])
            if rec["n_leases"] > 0:
                _metrics().counter("service.lease.expired").inc()
            expires = now + self.config.lease_ttl
            self._guarded_append({"ev": "lease", "id": jid,
                                  "worker": worker, "expires": expires,
                                  "t": now})
            _metrics().counter("service.jobs.claimed").inc()
            return JobView(
                id=jid, spec=rec["spec"], state="running",
                submitted_t=rec["submitted_t"], deadline_s=rec["deadline_s"],
                worker=worker, lease_expires=expires,
                n_leases=rec["n_leases"] + 1, n_expired=rec["n_expired"],
                trace_id=rec["trace_id"],
            )

    def renew(self, jid: str, worker: str, now: float | None = None) -> None:
        """Extend ``worker``'s lease on ``jid`` by another ``lease_ttl``.

        Workers call this from their heartbeat path so a live job that
        outlasts one TTL is never re-dispatched out from under its holder.
        A renew from a worker that has since been preempted is a no-op in
        the fold (the current holder's lease is authoritative).

        Best-effort under disk faults: a renew that cannot be appended is
        counted and dropped — the worst case is a lease that expires and
        re-dispatches a job whose journal+result store make re-execution
        idempotent, which beats failing a healthy sweep mid-flight.
        """
        now = time.time() if now is None else now
        try:
            with self._lock:
                self._guarded_append({"ev": "renew", "id": jid,
                                      "worker": worker,
                                      "expires": now + self.config.lease_ttl,
                                      "t": now})
        except ServiceError:
            _metrics().counter("service.lease.renew_failures").inc()
            return
        _metrics().counter("service.lease.renewed").inc()

    def complete(self, jid: str, worker: str, result: Any,
                 elapsed: float) -> None:
        """Persist ``result`` and mark the job done (idempotent).

        The result write happens *before* the ``done`` event and must
        succeed: a ``done`` without a readable result would be a lost job
        wearing a success state. On a failed write the job simply stays
        leased — the lease expires, the next holder recomputes (or finds
        the result if only the event append failed).
        """
        if not self.results.put(jid, result):
            _metrics().counter("service.spool.result_write_failures").inc()
            raise ServiceError(
                f"result store write failed for job {jid[:12]} "
                f"(disk fault); job stays leased for re-dispatch")
        with self._lock:
            self._guarded_append({"ev": "done", "id": jid, "worker": worker,
                                  "elapsed": elapsed, "t": time.time()})
        _metrics().counter("service.jobs.completed").inc()

    def fail(self, jid: str, worker: str, error_type: str, message: str,
             elapsed: float) -> None:
        """Record a permanent, typed job failure."""
        with self._lock:
            self._guarded_append({"ev": "fail", "id": jid, "worker": worker,
                                  "error_type": error_type,
                                  "message": message[:500], "elapsed": elapsed,
                                  "t": time.time()})
        _metrics().counter("service.jobs.failed").inc()

    def result(self, jid: str, default: Any = None) -> Any:
        """The stored result of a done job (``default`` when absent)."""
        return self.results.get(jid, default)

    def checkpoint_path(self, jid: str) -> Path:
        """Per-job checkpoint journal location (workers pass ``lock=True``)."""
        return self.root / "checkpoints" / f"{jid}.jsonl"

    # -- drain ---------------------------------------------------------------

    @property
    def _drain_path(self) -> Path:
        return self.root / "DRAIN"

    def request_drain(self) -> None:
        """Ask every worker to finish its current job and exit."""
        self._drain_path.touch()

    def clear_drain(self) -> None:
        try:
            self._drain_path.unlink()
        except FileNotFoundError:
            pass

    def drain_requested(self) -> bool:
        return self._drain_path.exists()

    # -- heartbeats ----------------------------------------------------------

    def heartbeat(self, worker: str, job: str | None = None,
                  breakers: dict[str, str] | None = None) -> None:
        """Atomically record that ``worker`` is alive right now.

        ``breakers`` (breaker name -> state) rides along so the supervisor's
        live status file can report per-shard breaker health without any
        extra IPC — the heartbeat file is already the liveness channel.
        A beat the disk refuses is counted and dropped: one missed beat is
        survivable, a shard crash-looping on telemetry writes is not.
        """
        record: dict[str, Any] = {"pid": os.getpid(), "t": time.time(),
                                  "job": job}
        if breakers:
            record["breakers"] = breakers
        try:
            durable.replace_file(self.root / "hb" / f"{worker}.json",
                                 (json.dumps(record) + "\n").encode(),
                                 sync=False)
        except OSError:
            _metrics().counter("service.heartbeat.write_failures").inc()

    def heartbeats(self) -> dict[str, dict[str, Any]]:
        """worker name -> last heartbeat payload ({pid, t, job}).

        A file replaced mid-read or torn by a dying writer is skipped but
        *counted* via the shared ``obs.reader.malformed_lines`` counter —
        the same ledger every other tolerant reader feeds — so silent
        heartbeat corruption is visible in the metrics plane.
        """
        hb_dir = self.root / "hb"
        if not hb_dir.is_dir():
            return {}
        out: dict[str, dict[str, Any]] = {}
        for path in sorted(hb_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
                if not isinstance(payload, dict):
                    raise ValueError("heartbeat is not a JSON object")
            except (OSError, ValueError):
                _metrics().counter("obs.reader.malformed_lines").inc()
                continue  # replaced mid-read; next poll sees it
            out[path.stem] = payload
        return out

    # -- diagnostics ---------------------------------------------------------

    def stale_leases(self, now: float | None = None) -> list[JobView]:
        """Jobs whose latest lease expired without a terminal event.

        These are exactly the jobs a crashed/hung worker abandoned; they
        re-dispatch on the next claim. ``repro doctor`` reports them.
        """
        now = time.time() if now is None else now
        return [v for v in self.jobs(now).values()
                if v.state == "pending" and v.n_leases > 0]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"JobSpool({str(self.root)!r})"
