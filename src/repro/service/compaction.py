"""Crash-consistent spool compaction: fold history, swap atomically, GC.

An append-only event log is the right durability primitive and the wrong
steady state: a process opening the spool folds the whole history, and
the log grows without bound. Compaction folds the log into a pre-computed
``repro-spoolsnap/1`` snapshot and resets the log to a one-line marker,
making a cold fold O(live jobs + tail) and recovery time bounded — without
ever having a moment where a crash loses an event.

**The swap protocol** (all under the spool's flock, so no claim/submit can
interleave; both swaps are :mod:`repro.util.durable` atomic replaces with
``sync=True``, so the chaos drills can fault every step)::

    1. fold snapshot + log  ->  new state, generation G = old G + 1
    2. write a temp beside spoolsnap.json, fsync
    3. rename -> spoolsnap.json, fsync dir          (atomic: snapshot live)
    4. write a temp beside spool.jsonl = one 'compact' marker line
       {gen: G}, fsync
    5. rename -> spool.jsonl, fsync dir             (atomic: tail reset)
    6. GC result files no retained job can ever use

**Crash matrix.** The reader (:meth:`JobSpool._reconcile`) reconciles every
state a crash can leave (DESIGN §15):

* crash before step 3: old snapshot + old log — nothing happened.
* crash between 3 and 5: new snapshot, old log. The snapshot records how
  many log lines it folded (``n_log_lines``); the reader skips exactly
  those, so no event is applied twice (a double-folded ``lease`` would
  corrupt ``n_leases``) and none is lost (appends after the crash land
  past the skip count — the count excludes any torn fragment, which the
  next append truncates before writing).
* crash after 5: new snapshot + marker log — compaction complete; only
  the idempotent GC was lost, and the next compaction redoes it.

The log is never truncated in place — the tail reset is itself an atomic
rename — so there is no window where the log is empty without its marker.

**GC.** A result file whose job is not retained, or whose job failed, is
unreachable and is deleted. Live jobs — pending, running, or awaiting
re-dispatch — keep theirs.

:func:`verify_spool` is the fsck: it checks snapshot/log/marker
consistency, folds the state, and verifies every done job's result is
present and checksum-intact, optionally against an expected job table
(``repro spool verify``; the disk-chaos CI drill gates on it).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ServiceError
from repro.obs.metrics import default_registry as _metrics
from repro.robust.diskchaos import SimulatedCrash
from repro.service.spool import (
    COMPACT_EV,
    SNAPSHOT_SCHEMA,
    JobSpool,
    read_snapshot,
)
from repro.service.spool import snapshot_record as _snapshot_record
from repro.util import durable

__all__ = [
    "CRASH_POINTS",
    "VERIFY_SCHEMA",
    "CompactionPolicy",
    "CompactionStats",
    "compact",
    "maybe_compact",
    "render_verify",
    "should_compact",
    "verify_spool",
]

VERIFY_SCHEMA = "repro-spoolverify/1"

#: Named crash points inside :func:`compact` (``crash_at=`` in tests and
#: drills raises :class:`~repro.robust.diskchaos.SimulatedCrash` there).
CRASH_POINTS = ("pre-snapshot-rename", "post-snapshot-rename",
                "post-log-swap")

_MISS = object()


@dataclass(frozen=True)
class CompactionPolicy:
    """When to compact and what to keep.

    ``retain_terminal=None`` keeps every terminal job in the snapshot —
    dedup, ``repro jobs``, and late ``wait_for`` polls keep working across
    compactions, and a pre-folded terminal job costs O(1) per fold, not
    O(its events). Setting it prunes all but the newest N terminal jobs
    (their results are GC'd with them); a pruned done job's re-submission
    re-executes instead of deduping.
    """

    max_log_bytes: int | None = 4 * 1024 * 1024  # size trigger
    max_events: int | None = 4096                # tail-length trigger
    retain_terminal: int | None = None           # None: keep all terminal
    gc: bool = True            # delete orphaned results

    def __post_init__(self) -> None:
        if self.max_log_bytes is not None and self.max_log_bytes < 1:
            raise ValueError(
                f"max_log_bytes must be >= 1, got {self.max_log_bytes}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(
                f"max_events must be >= 1, got {self.max_events}")
        if self.retain_terminal is not None and self.retain_terminal < 0:
            raise ValueError(
                f"retain_terminal must be >= 0, got {self.retain_terminal}")


@dataclass
class CompactionStats:
    """What one compaction did (returned by :func:`compact`)."""

    generation: int
    n_events_folded: int       # live-tail events folded into the snapshot
    n_jobs: int                # jobs retained in the snapshot
    n_live: int                # of which non-terminal
    n_terminal: int            # of which terminal
    n_pruned: int              # terminal jobs dropped by retain_terminal
    log_bytes_before: int
    log_bytes_after: int
    gc_results: int
    duration_s: float

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)


def _crash_hook(crash_at: str | None, point: str) -> None:
    if crash_at == point:
        raise SimulatedCrash(f"injected compaction crash at {point}")


def compact(spool: JobSpool, policy: CompactionPolicy | None = None, *,
            crash_at: str | None = None) -> CompactionStats:
    """Fold the spool into a new snapshot generation and reset the log.

    Safe against concurrent claims/submits (runs under the spool flock)
    and against a crash at any point (see the module crash matrix).
    ``crash_at`` names a :data:`CRASH_POINTS` entry to die at — the chaos
    harness for proving exactly that.
    """
    policy = policy if policy is not None else CompactionPolicy()
    if crash_at is not None and crash_at not in CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {crash_at!r}; expected one of {CRASH_POINTS}")
    t0 = time.monotonic()
    with spool._lock:
        snap = read_snapshot(spool.root)
        prev_gen = int(snap.get("generation", 0)) if snap else 0
        prev_folded = int(snap.get("n_events_folded", 0)) if snap else 0
        gen = prev_gen + 1
        raw = spool._records()
        fold = spool._fold
        n_tail = fold.n_events if fold is not None else 0
        try:
            log_bytes_before = spool.log_path.stat().st_size
        except OSError:
            log_bytes_before = 0
        # Skip count for the crash window between the two renames. The
        # index after the last *folded* line, not the raw line count: a
        # torn final fragment is truncated away by the next append, so
        # counting it would make the reader skip that append's record.
        n_log_lines = fold.n_lines if fold is not None else 0

        order = list(raw)  # dict insertion order == submission order
        terminal_ids = [j for j in order if raw[j]["terminal"] is not None]
        pruned: set[str] = set()
        if policy.retain_terminal is not None \
                and len(terminal_ids) > policy.retain_terminal:
            drop = len(terminal_ids) - policy.retain_terminal
            pruned = set(terminal_ids[:drop])
        retained = [j for j in order if j not in pruned]

        doc = {
            "schema": SNAPSHOT_SCHEMA,
            "generation": gen,
            "created_t": time.time(),
            "n_log_lines": n_log_lines,
            "n_events_folded": prev_folded + n_tail,
            "jobs": [_snapshot_record(j, raw[j]) for j in retained],
        }
        snap_tmp = durable.write_temp(
            spool.snapshot_path,
            (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"),
            sync=True)
        _crash_hook(crash_at, "pre-snapshot-rename")
        durable.commit_temp(snap_tmp, spool.snapshot_path, sync=True)
        _crash_hook(crash_at, "post-snapshot-rename")

        marker = json.dumps({"ev": COMPACT_EV, "gen": gen, "t": time.time()},
                            sort_keys=True) + "\n"
        durable.replace_file(spool.log_path, marker.encode("utf-8"), sync=True)
        _crash_hook(crash_at, "post-log-swap")

        n_gc_res = _gc(spool, raw, set(retained)) if policy.gc else 0

        stats = CompactionStats(
            generation=gen,
            n_events_folded=n_tail,
            n_jobs=len(retained),
            n_live=sum(1 for j in retained if raw[j]["terminal"] is None),
            n_terminal=sum(
                1 for j in retained if raw[j]["terminal"] is not None),
            n_pruned=len(pruned),
            log_bytes_before=log_bytes_before,
            log_bytes_after=len(marker.encode("utf-8")),
            gc_results=n_gc_res,
            duration_s=time.monotonic() - t0,
        )
    _metrics().counter("service.compaction.runs").inc()
    _metrics().counter("service.compaction.events_folded").inc(n_tail)
    _metrics().gauge("service.compaction.generation").set(gen)
    return stats


def _gc(spool: JobSpool, raw: dict[str, dict[str, Any]],
        retained: set[str]) -> int:
    """Delete results no retained job can ever use again; returns the count.

    Runs under the spool flock, so no new job can be submitted or claimed
    mid-GC. Live (non-terminal) retained jobs keep their results: one may
    already exist (a completion that crashed between the result write and
    the ``done`` event — exactly what result reuse is for).
    """
    live = {j for j in retained if raw[j]["terminal"] is None}
    n_res = 0
    keep = live | {j for j in retained if raw[j]["terminal"] == "done"}
    for key in list(spool.results.keys()):
        if key in keep:
            continue
        try:
            spool.results._path(key).unlink()
            n_res += 1
        except OSError:
            continue
    if n_res:
        _metrics().counter("service.compaction.gc_results").inc(n_res)
    return n_res


def should_compact(spool: JobSpool, policy: CompactionPolicy | None = None,
                   ) -> bool:
    """Whether the live log has outgrown the policy's size/event bounds."""
    policy = policy if policy is not None else CompactionPolicy()
    try:
        size = spool.log_path.stat().st_size
    except OSError:
        return False
    if policy.max_log_bytes is not None and size >= policy.max_log_bytes:
        return True
    if policy.max_events is not None:
        # An event line is never shorter than ~40 bytes; skip the read
        # entirely while the log cannot possibly hold max_events lines.
        if size >= policy.max_events * 40:
            try:
                n = spool.log_path.read_bytes().count(b"\n")
            except OSError:
                return False
            return n >= policy.max_events
    return False


def maybe_compact(spool: JobSpool, policy: CompactionPolicy | None = None,
                  ) -> CompactionStats | None:
    """Compact iff :func:`should_compact` (the supervisor's auto hook)."""
    policy = policy if policy is not None else CompactionPolicy()
    if not should_compact(spool, policy):
        return None
    return compact(spool, policy)


# -- fsck --------------------------------------------------------------------


def verify_spool(root: str | os.PathLike[str],
                 expect_jobs: dict[str, str] | None = None) -> dict[str, Any]:
    """fsck a spool directory into a ``repro-spoolverify/1`` report.

    Checks, in order: the snapshot parses; the log has no interior
    corruption; the marker generation is consistent with the snapshot;
    the state folds; every done job's result is present and
    checksum-intact. With ``expect_jobs`` (id -> expected state) it also
    pins the folded terminal set against an oracle — the disk-chaos
    drill's zero-lost/zero-duplicated gate. ``ok`` is the conjunction of
    every check; orphan counts are informational (reclaimable by
    ``repro spool compact``), not failures.
    """
    root = Path(root)
    checks: list[dict[str, Any]] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    if not root.is_dir():
        add("spool-dir", False, f"no spool directory at {root}")
        return {"schema": VERIFY_SCHEMA, "t": time.time(), "root": str(root),
                "ok": False, "generation": 0, "checks": checks}

    # snapshot ---------------------------------------------------------------
    snap: dict[str, Any] | None = None
    snap_ok = True
    try:
        snap = read_snapshot(root)
    except ServiceError as exc:
        snap_ok = False
        add("snapshot", False, str(exc))
    if snap_ok:
        if snap is None:
            add("snapshot", True, "never compacted (no spoolsnap.json)")
        else:
            age = max(0.0, time.time() - float(snap.get("created_t", 0.0)))
            add("snapshot", True,
                f"generation {snap.get('generation')}, "
                f"{len(snap.get('jobs', ()))} job(s), age {age:.0f}s")
    generation = int(snap.get("generation", 0)) if snap else 0

    # log --------------------------------------------------------------------
    parsed: list[tuple[int, dict[str, Any]]] = []
    try:
        log = durable.read_lines(root / "spool.jsonl")
    except FileNotFoundError:
        log = durable.Lines([], [], False, 0)
    except OSError as exc:
        log = None
        add("log", False, f"unreadable spool log: {exc}")
    if log is not None:
        parsed = log.records
        if log.bad:
            add("log", False,
                f"{len(log.bad)} corrupt interior line(s) at "
                f"{[i + 1 for i in log.bad[:8]]} of {log.n_lines} — "
                "event history lost")
        else:
            add("log", True,
                f"{len(parsed)} event(s) in {log.n_lines} line(s)"
                + (", torn tail (crash artifact; repaired on next append)"
                   if log.torn else ""))

    # marker/generation consistency ------------------------------------------
    marker_gen: int | None = None
    if parsed and parsed[0][0] == 0 and parsed[0][1].get("ev") == COMPACT_EV:
        marker_gen = int(parsed[0][1].get("gen", -1))
    if snap is None and marker_gen is None:
        add("generation", True, "no snapshot, no marker (plain log)")
    elif snap is None:
        add("generation", False,
            f"log marker generation {marker_gen} but no snapshot — "
            "snapshot lost or rolled back")
    elif marker_gen == generation:
        add("generation", True, f"marker and snapshot in sync at g{generation}")
    elif marker_gen is None or marker_gen < generation:
        add("generation", True,
            f"snapshot g{generation} ahead of log "
            f"({'marker g%d' % marker_gen if marker_gen is not None else 'no marker'})"
            " — crash window between renames; skip-count reconciliation active")
    else:
        add("generation", False,
            f"log marker g{marker_gen} ahead of snapshot g{generation} — "
            "snapshot write was lost after its log swap")

    # fold -------------------------------------------------------------------
    views: dict[str, Any] = {}
    try:
        views = JobSpool.open(root).jobs()
    except ServiceError as exc:
        add("fold", False, f"state does not fold: {exc}")
    else:
        by_state: dict[str, int] = {}
        for v in views.values():
            by_state[v.state] = by_state.get(v.state, 0) + 1
        add("fold", True,
            f"{len(views)} job(s): " + ", ".join(
                f"{k}={by_state[k]}" for k in sorted(by_state)) if views
            else "0 job(s)")

    # results ----------------------------------------------------------------
    spool = JobSpool.open(root)
    done_ids = [jid for jid, v in views.items() if v.state == "done"]
    missing = [jid for jid in done_ids
               if spool.result(jid, _MISS) is _MISS]
    stored = set(spool.results.keys())
    orphan_results = sorted(stored - set(views))
    if missing:
        add("results", False,
            f"{len(missing)}/{len(done_ids)} done job(s) missing or "
            f"corrupt results: {[j[:12] for j in missing[:8]]}")
    else:
        add("results", True,
            f"{len(done_ids)} done job(s), all results intact"
            + (f"; {len(orphan_results)} orphan file(s) "
               "(reclaimable: repro spool compact)" if orphan_results else ""))

    # expected-state oracle --------------------------------------------------
    if expect_jobs is not None:
        lost = sorted(j for j in expect_jobs if j not in views)
        mismatched = sorted(
            j for j in expect_jobs
            if j in views and views[j].state != expect_jobs[j])
        unexpected = sorted(
            j for j, v in views.items()
            if j not in expect_jobs and v.state in ("done", "failed"))
        problems = []
        if lost:
            problems.append(f"{len(lost)} lost ({[j[:12] for j in lost[:5]]})")
        if mismatched:
            problems.append(
                f"{len(mismatched)} state mismatch "
                f"({[j[:12] for j in mismatched[:5]]})")
        if unexpected:
            problems.append(
                f"{len(unexpected)} unexpected terminal "
                f"({[j[:12] for j in unexpected[:5]]})")
        add("expected-jobs",
            not (lost or mismatched or unexpected),
            "; ".join(problems) if problems
            else f"all {len(expect_jobs)} expected job(s) match")

    ok = all(c["passed"] for c in checks)
    return {"schema": VERIFY_SCHEMA, "t": time.time(), "root": str(root),
            "ok": ok, "generation": generation, "checks": checks}


def render_verify(report: dict[str, Any]) -> str:
    """Human-readable verify report (mirrors ``repro doctor`` output)."""
    lines = [f"spool verify: {report['root']}"]
    for check in report["checks"]:
        mark = "ok " if check["passed"] else "FAIL"
        lines.append(f"  {mark} {check['name']:<14} {check['detail']}")
    lines.append(
        f"spool {'OK' if report['ok'] else 'NOT OK'} "
        f"(generation {report.get('generation', 0)})")
    return "\n".join(lines)
