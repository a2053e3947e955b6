"""Environment self-check behind ``repro doctor``.

A surprising share of "the model is wrong" reports are really "the
environment is wrong": a numpy build too old for ``Generator`` features, a
cache directory on a read-only mount, a BLAS that breaks seeded
reproducibility. ``repro doctor`` runs the cheap checks that distinguish
those cases up front and prints a readable report; a nonzero exit code
means at least one check failed.

Checks are deliberately side-effect free apart from one tempfile write in
the configured cache directory.
"""

from __future__ import annotations

import os
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

__all__ = ["DoctorCheck", "DoctorReport", "run_doctor"]

#: Oldest numpy and scipy the package declares (``pyproject.toml``): numpy
#: for the ``Generator`` semantics the seeded streams rely on, scipy for the
#: ``scipy.special`` ufuncs the analytic and least-squares kernels call.
_MIN_NUMPY = (1, 24)
_MIN_SCIPY = (1, 10)


@dataclass(frozen=True)
class DoctorCheck:
    """One environment check: what was probed and what was found."""

    name: str
    passed: bool
    detail: str

    @property
    def status(self) -> str:
        return "ok" if self.passed else "FAIL"


@dataclass
class DoctorReport:
    """All doctor checks plus render/exit helpers."""

    checks: list[DoctorCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self, stream: TextIO | None = None) -> str:
        out = stream if stream is not None else sys.stdout
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"  [{c.status:>4}] {c.name.ljust(width)}  {c.detail}"
                 for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        verdict = ("all checks passed" if self.ok
                   else f"{n_fail} of {len(self.checks)} check(s) FAILED")
        text = "repro doctor\n" + "\n".join(lines) + f"\n{verdict}\n"
        out.write(text)
        return text


def _check_python() -> DoctorCheck:
    ok = sys.version_info >= (3, 10)
    return DoctorCheck(
        "python", ok,
        f"{platform.python_version()} ({'>= 3.10 required' if not ok else sys.executable})")


def _version_floor(name: str, version: str, floor: tuple[int, int]) -> DoctorCheck:
    try:
        parts = tuple(int(p) for p in version.split(".")[:2])
    except ValueError:
        parts = floor  # dev builds ("2.0.0.dev0+...") parse fine; be lenient
    ok = parts >= floor
    want = ".".join(str(v) for v in floor)
    return DoctorCheck(name, ok, version + ("" if ok else f" (need >= {want})"))


def _check_numpy() -> DoctorCheck:
    return _version_floor("numpy", np.__version__, _MIN_NUMPY)


def _check_scipy() -> DoctorCheck:
    try:
        import scipy
    except ImportError:
        want = ".".join(str(v) for v in _MIN_SCIPY)
        return DoctorCheck("scipy", False, f"not installed (need >= {want})")
    return _version_floor("scipy", scipy.__version__, _MIN_SCIPY)


def _check_cache_dir() -> DoctorCheck:
    from repro.cache.result_cache import env_disk_root

    root = env_disk_root()
    if not root:
        return DoctorCheck("cache-dir", True,
                           "REPRO_CACHE_DIR unset (memory-only caching)")
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=path, prefix=".doctor-", suffix=".probe"):
            pass
    except OSError as exc:
        return DoctorCheck("cache-dir", False, f"{path}: not writable ({exc})")
    return DoctorCheck("cache-dir", True, f"{path}: writable")


def _check_seed_reproducibility() -> DoctorCheck:
    from repro.util.rng import child_rng

    a = child_rng(1234, "doctor", "smoke").random(8)
    b = child_rng(1234, "doctor", "smoke").random(8)
    if not np.array_equal(a, b):
        return DoctorCheck("seed-repro", False,
                           "identical named streams produced different draws")
    # A pinned draw guards against numpy changing bit-generator semantics
    # underneath the experiment seeds.
    x = float(np.random.default_rng(0).random())
    expected = 0.6369616873214543
    if abs(x - expected) > 1e-12:
        return DoctorCheck(
            "seed-repro", False,
            f"default_rng(0).random() = {x!r}, expected {expected!r} — "
            "numpy RNG semantics changed; pinned results will not reproduce")
    return DoctorCheck("seed-repro", True, "named streams + pinned PCG64 draw ok")


def _check_spool_dir() -> DoctorCheck:
    """Service spool writability (``REPRO_SPOOL_DIR``; unset is fine)."""
    root = os.environ.get("REPRO_SPOOL_DIR")
    if not root:
        return DoctorCheck("spool-dir", True,
                           "REPRO_SPOOL_DIR unset (no service spool configured)")
    path = Path(root)
    try:
        path.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=path, prefix=".doctor-", suffix=".probe"):
            pass
    except OSError as exc:
        return DoctorCheck("spool-dir", False, f"{path}: not writable ({exc})")
    from repro.util.locking import FileLock

    lock = FileLock(path / ".doctor.lock")
    try:
        if not lock.acquire(blocking=False):
            return DoctorCheck("spool-dir", False,
                               f"{path}: flock probe could not acquire")
    finally:
        lock.release()
    mode = "flock enforced" if lock.enforced else "flock UNENFORCED on this platform"
    return DoctorCheck("spool-dir", lock.enforced, f"{path}: writable, {mode}")


def _check_fd_headroom() -> DoctorCheck:
    """A serving daemon needs fd headroom (spool log, journals, heartbeats)."""
    try:
        import resource

        soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    except (ImportError, OSError):
        return DoctorCheck("fd-headroom", True,
                           "RLIMIT_NOFILE unavailable (not a POSIX host)")
    try:
        n_open = len(os.listdir("/proc/self/fd"))
    except OSError:
        n_open = 0  # no procfs: report the limit alone
    headroom = soft - n_open
    ok = headroom >= 64
    return DoctorCheck(
        "fd-headroom", ok,
        f"{n_open} open of {soft} allowed ({headroom} free"
        + ("" if ok else "; service workers need >= 64") + ")")


def _check_start_method() -> DoctorCheck:
    """Worker spawning must actually work (containers can break semaphores)."""
    import multiprocessing

    method = multiprocessing.get_start_method(allow_none=True) or \
        multiprocessing.get_start_method()
    try:
        lock = multiprocessing.Lock()
        with lock:
            pass
    except (OSError, ImportError) as exc:
        return DoctorCheck(
            "mp-start-method", False,
            f"{method}: cannot create a multiprocessing lock ({exc}) — "
            "worker supervision will not start")
    return DoctorCheck("mp-start-method", True,
                       f"{method}: semaphore/lock creation ok")


def _check_stale_leases() -> DoctorCheck:
    """Expired-but-unfinished jobs in the configured spool (re-dispatchable)."""
    root = os.environ.get("REPRO_SPOOL_DIR")
    if not root or not Path(root).is_dir():
        return DoctorCheck("stale-leases", True, "no spool to inspect")
    from repro.errors import ServiceError
    from repro.service import JobSpool

    try:
        stale = JobSpool.open(root).stale_leases()
    except ServiceError as exc:
        return DoctorCheck("stale-leases", False, f"spool unreadable: {exc}")
    if not stale:
        return DoctorCheck("stale-leases", True, "none (queue healthy)")
    worst = max(stale, key=lambda v: v.n_expired)
    return DoctorCheck(
        "stale-leases", True,
        f"{len(stale)} job(s) abandoned by dead workers (will re-dispatch; "
        f"worst: {worst.id[:12]} with {worst.n_expired} expired lease(s))")


#: Spool-bloat thresholds: a live log past either means compaction is not
#: running (auto-compaction disabled or failing) and fold/recovery time is
#: growing without bound.
_SPOOL_BLOAT_BYTES = 64 * 1024 * 1024
_SPOOL_BLOAT_EVENTS = 100_000


def _check_spool_bloat() -> DoctorCheck:
    """Spool log size / tail length / snapshot age (``REPRO_SPOOL_DIR``).

    Every fold replays the log tail, so an uncompacted log is a growing
    tax on every claim, submit, and status poll — and the recovery-time
    bound compaction exists to provide. Past the thresholds this probe
    fails with the fix spelled out (``repro spool compact``).
    """
    import time

    root = os.environ.get("REPRO_SPOOL_DIR")
    if not root or not Path(root).is_dir():
        return DoctorCheck("spool-bloat", True, "no spool to inspect")
    from repro.errors import ServiceError
    from repro.service.spool import read_snapshot

    log_path = Path(root) / "spool.jsonl"
    try:
        log_bytes = log_path.stat().st_size
    except OSError:
        log_bytes = 0
    try:
        n_events = log_path.read_bytes().count(b"\n") if log_bytes else 0
    except OSError:
        n_events = 0
    try:
        snap = read_snapshot(root)
    except ServiceError as exc:
        return DoctorCheck("spool-bloat", False,
                           f"snapshot unreadable ({exc}) — run "
                           "`repro spool verify`")
    if snap is None:
        snap_note = "never compacted"
    else:
        age = max(0.0, time.time() - float(snap.get("created_t", 0.0)))
        snap_note = (f"snapshot g{int(snap.get('generation', 0))}, "
                     f"age {age:.0f}s")
    detail = (f"log {log_bytes / 1024.0:.1f} KiB, {n_events} event line(s) "
              f"since last compaction; {snap_note}")
    if log_bytes >= _SPOOL_BLOAT_BYTES or n_events >= _SPOOL_BLOAT_EVENTS:
        return DoctorCheck(
            "spool-bloat", False,
            detail + " — folds are replaying an unbounded history; run "
                     "`repro spool compact` (or re-enable auto-compaction)")
    return DoctorCheck("spool-bloat", True, detail)


def _check_status_file() -> DoctorCheck:
    """``serve --status-file`` target writability (``REPRO_STATUS_FILE``)."""
    target = os.environ.get("REPRO_STATUS_FILE")
    if not target:
        return DoctorCheck("status-file", True,
                           "REPRO_STATUS_FILE unset (no status file configured)")
    parent = Path(target).parent
    try:
        parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=parent, prefix=".doctor-",
                                         suffix=".probe"):
            pass
    except OSError as exc:
        return DoctorCheck("status-file", False,
                           f"{parent}: not writable ({exc}) — the serve loop "
                           "would count every status write as a failure")
    return DoctorCheck("status-file", True, f"{parent}: writable")


#: A live shard's metrics snapshot older than this (relative to its own
#: heartbeat) means the heartbeat-path flush is not running.
_SNAPSHOT_STALE_S = 30.0


def _check_shard_snapshots() -> DoctorCheck:
    """Per-shard metrics snapshot freshness vs. the shard's heartbeat.

    A worker beats every few tasks and flushes its metrics from the same
    path; a shard whose heartbeat is current but whose snapshot is tens of
    seconds behind has a broken flush (telemetry would be lost at SIGKILL —
    the exact blind spot the heartbeat flush exists to close).
    """
    import json
    import time

    root = os.environ.get("REPRO_SPOOL_DIR")
    if not root or not Path(root).is_dir():
        return DoctorCheck("shard-snapshots", True, "no spool to inspect")
    from repro.service import JobSpool

    now = time.time()
    live: dict[str, dict] = {}
    for name, hb in JobSpool.open(root).heartbeats().items():
        if now - float(hb.get("t", 0.0)) >= _SNAPSHOT_STALE_S:
            continue
        try:
            # A recent beat from an exited shard (service just drained) is
            # not a broken flush — only probe processes that still exist.
            os.kill(int(hb.get("pid")), 0)
        except (OSError, TypeError, ValueError):
            continue
        live[name] = hb
    if not live:
        return DoctorCheck("shard-snapshots", True,
                           "no live shards (nothing to be stale against)")
    stale: list[str] = []
    for name, hb in sorted(live.items()):
        path = Path(root) / "metrics" / f"{name}.json"
        snap_t = None
        try:
            doc = json.loads(path.read_text())
            snap_t = float(doc.get("t")) if isinstance(doc, dict) \
                and doc.get("t") is not None else path.stat().st_mtime
        except (OSError, ValueError, TypeError):
            pass
        if snap_t is None:
            stale.append(f"{name} (no snapshot)")
        elif float(hb.get("t", 0.0)) - snap_t > _SNAPSHOT_STALE_S:
            stale.append(f"{name} ({hb.get('t', 0.0) - snap_t:.0f}s behind)")
    if stale:
        return DoctorCheck(
            "shard-snapshots", False,
            f"{len(stale)} live shard(s) with stale metrics: "
            + ", ".join(stale))
    return DoctorCheck("shard-snapshots", True,
                       f"{len(live)} live shard(s), snapshots current")


#: Spool-vs-span wall-clock disagreement beyond this breaks merged-timeline
#: ordering badly enough to flag (sub-second skew is clamped in SLO math).
_CLOCK_SKEW_S = 60.0


def _check_clock_skew() -> DoctorCheck:
    """Spool event timestamps vs. worker span timestamps, per trace.

    Both sides stamp ``time.time()``; the merged timeline and the SLO fold
    order across them, so a shard whose clock disagrees with the submitter's
    by minutes (broken NTP in a container) silently corrupts both. An
    execute span opening *before* the lease that dispatched it is the
    telltale — leases causally precede execution.
    """
    root = os.environ.get("REPRO_SPOOL_DIR")
    if not root or not Path(root).is_dir():
        return DoctorCheck("clock-skew", True, "no spool to inspect")
    from repro.obs.aggregate import read_shard_traces, read_spool_events
    from repro.obs.slo import EXECUTE_SPAN, fold_job_timings

    events, _ = read_spool_events(root)
    spans, _ = read_shard_traces(root)
    timings = {jt.trace_id: jt for jt in fold_job_timings(events).values()}
    worst = 0.0
    n_paired = 0
    for rec in spans:
        if rec.get("kind") != "span" or rec.get("name") != EXECUTE_SPAN:
            continue
        jt = timings.get(rec.get("trace_id"))
        if jt is None or not jt.lease_ts:
            continue
        n_paired += 1
        skew = min(jt.lease_ts) - float(rec.get("t_wall", 0.0))
        worst = max(worst, skew)
    if not n_paired:
        return DoctorCheck("clock-skew", True,
                           "no traced executions to compare against the spool")
    if worst > _CLOCK_SKEW_S:
        return DoctorCheck(
            "clock-skew", False,
            f"execute spans open up to {worst:.0f}s before their dispatching "
            "lease — shard and submitter clocks disagree; merged timelines "
            "and SLO percentiles are untrustworthy")
    return DoctorCheck(
        "clock-skew", True,
        f"{n_paired} span/lease pair(s), worst skew {max(worst, 0.0):.2f}s")


_CHECKS: tuple[Callable[[], DoctorCheck], ...] = (
    _check_python,
    _check_numpy,
    _check_scipy,
    _check_cache_dir,
    _check_seed_reproducibility,
    _check_spool_dir,
    _check_fd_headroom,
    _check_start_method,
    _check_stale_leases,
    _check_spool_bloat,
    _check_status_file,
    _check_shard_snapshots,
    _check_clock_skew,
)


def run_doctor() -> DoctorReport:
    """Run every environment check; never raises — failures land in the report."""
    report = DoctorReport()
    for probe in _CHECKS:
        try:
            report.checks.append(probe())
        except Exception as exc:  # a probe crashing IS a failed check
            name = probe.__name__.removeprefix("_check_").replace("_", "-")
            report.checks.append(DoctorCheck(name, False, f"check crashed: {exc!r}"))
    return report
