"""The job service: ``serve``, ``submit``, ``jobs`` and ``spool compact|verify``.

Flag defaults are read off the library: ``serve``'s from
:class:`~repro.service.config.ServiceConfig`, ``submit``'s from
:class:`~repro.service.jobs.JobSpec`. ``--idle-grace`` is the exception: the
library drains at once (0 s), while ``serve ... &`` followed by ``submit``
needs the first job to land first (3 s). The commands import the rest of
the service when they run, so building the parser loads neither the
supervisor nor the worker.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.cli import _add_spool
from repro.errors import ServiceError
from repro.service.config import ServiceConfig
from repro.service.jobs import JobSpec
from repro.simulator import SPEC2000_PROFILES
from repro.util import durable


def serve_args(p: argparse.ArgumentParser) -> None:
    _add_spool(p, help="spool directory (created if missing); clients "
                       "submit into the same directory", must_exist=False)
    p.add_argument("--workers", type=int, default=ServiceConfig.workers,
                   metavar="N")
    p.add_argument("--max-depth", type=int, default=ServiceConfig.max_depth,
                   metavar="N",
                   help="admission bound: pending+running jobs beyond this "
                        "are rejected with the overload exit code")
    p.add_argument("--lease-ttl", type=float, default=ServiceConfig.lease_ttl,
                   metavar="SEC",
                   help="job lease lifetime; a crashed worker's job "
                        "re-dispatches after this long")
    p.add_argument("--heartbeat-timeout", type=float,
                   default=ServiceConfig.heartbeat_timeout, metavar="SEC",
                   help="a live worker silent this long is killed and "
                        "restarted")
    p.add_argument("--max-restarts", type=int,
                   default=ServiceConfig.max_restarts, metavar="N",
                   help="restart budget per worker slot")
    p.add_argument("--drain-on-idle", action="store_true",
                   help="exit cleanly once the queue is empty (batch mode)")
    p.add_argument("--idle-grace", type=float, default=3.0, metavar="SEC",
                   help="with --drain-on-idle, only drain after the queue "
                        "stays empty this long (lets the first submit land)")
    p.add_argument("--max-runtime", type=float, default=None, metavar="SEC",
                   help="drain and exit after this long")
    p.add_argument("--obs", action="store_true",
                   help="observability plane: every worker shard writes a "
                        "repro-trace/1 file with one trace id per job "
                        "(merge with 'repro obs aggregate'); off by "
                        "default, results are bit-identical either way")
    p.add_argument("--status-file", default=None, metavar="PATH",
                   help="keep a live JSON health snapshot (repro-status/1: "
                        "shard liveness, queue depth, breaker states, SLO "
                        "percentiles) at PATH, replaced atomically")
    p.add_argument("--status-interval", type=float,
                   default=ServiceConfig.status_interval, metavar="SEC",
                   help="status-file refresh cadence (default 2s)")
    p.add_argument("--no-auto-compact", action="store_true",
                   help="disable the supervision loop's automatic spool "
                        "compaction (compact manually with "
                        "'repro spool compact')")
    p.add_argument("--compact-after-bytes", type=int,
                   default=ServiceConfig.compact_max_log_bytes, metavar="N",
                   help="auto-compact once the live event log exceeds this "
                        "many bytes (default 4 MiB)")
    p.add_argument("--compact-after-events", type=int,
                   default=ServiceConfig.compact_max_events, metavar="N",
                   help="auto-compact once this many events accumulate "
                        "since the last compaction (default 4096)")
    # Chaos harness for supervision drills; hidden like the sweep one.
    p.add_argument("--chaos-sigkill-at", type=int, default=None,
                   help=argparse.SUPPRESS)


def submit_args(p: argparse.ArgumentParser) -> None:
    # A missing spool is created, so a submit can land before ``serve`` runs.
    _add_spool(p, help=None, must_exist=False)
    p.add_argument("kind", choices=["sweep", "fit"])
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("--start", type=int, default=JobSpec.start,
                   help="design-space slice start (sweep jobs)")
    p.add_argument("--stop", type=int, default=JobSpec.stop,
                   help="design-space slice stop (sweep jobs)")
    p.add_argument("--n-instructions", type=int, default=JobSpec.n_instructions)
    p.add_argument("--model", default=JobSpec.model,
                   help="model label for fit jobs (default LR-E)")
    p.add_argument("--rate", type=float, default=JobSpec.rate,
                   help="sampling rate for fit jobs")
    p.add_argument("--robust", action="store_true",
                   help="fit jobs train through the degradation ladder")
    p.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="wall-clock deadline from submission; the worker "
                        "aborts late jobs with the deadline exit code")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes; exit with the "
                        "job's own error code on failure")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SEC",
                   help="with --wait: give up after this long")


def jobs_args(p: argparse.ArgumentParser) -> None:
    _add_spool(p, help=None)
    p.add_argument("--json", action="store_true",
                   help="one JSON object per job instead of the table")


def spool_args(p: argparse.ArgumentParser) -> None:
    spool_sub = p.add_subparsers(dest="spool_command", required=True)
    sp = spool_sub.add_parser(
        "compact",
        help="fold the event log into a repro-spoolsnap/1 snapshot "
             "(atomic swap), truncate the live tail, GC orphaned results")
    _add_spool(sp)
    sp.add_argument("--retain-terminal", type=int, default=None, metavar="N",
                    help="keep only the N most recent terminal jobs in the "
                         "snapshot (default: keep all)")
    sp.add_argument("--no-gc", action="store_true",
                    help="skip deleting orphaned result files")
    sp.add_argument("--json", action="store_true",
                    help="print the compaction stats as JSON")
    sp = spool_sub.add_parser(
        "verify",
        help="fsck the spool: snapshot schema, generation agreement, log "
             "fold, result checksums; nonzero exit on failure")
    _add_spool(sp)
    sp.add_argument("--json", action="store_true",
                    help="print the repro-spoolverify/1 report as JSON")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="also write the repro-spoolverify/1 report to PATH")
    sp.add_argument("--expect-jobs", default=None, metavar="FILE",
                    help="oracle check: JSON file mapping job id -> expected "
                         "terminal state; lost/mismatched jobs fail the "
                         "verify")


def _fields(cls, args: argparse.Namespace) -> dict:
    """The ``args`` attributes named like ``cls``'s dataclass fields."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if hasattr(args, f.name)}


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.parallel import FaultInjector
    from repro.service.supervisor import WorkerSupervisor

    injector = None
    if args.chaos_sigkill_at is not None:
        injector = FaultInjector(seed=args.seed,
                                 sigkill_indices=(args.chaos_sigkill_at,))
    config = ServiceConfig(
        **_fields(ServiceConfig, args), root=args.spool, injector=injector,
        auto_compact=not args.no_auto_compact,
        compact_max_log_bytes=args.compact_after_bytes,
        compact_max_events=args.compact_after_events)
    sup = WorkerSupervisor(config)
    print(f"repro serve: {args.workers} worker(s) on spool {args.spool} "
          f"(max depth {args.max_depth}, lease ttl {args.lease_ttl:g}s)",
          file=sys.stderr)
    rc = sup.run()
    for event in sup.events:
        print(f"repro serve: {event}", file=sys.stderr)
    return rc


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import submit_job, wait_for

    jid = submit_job(args.spool, JobSpec(**_fields(JobSpec, args)),
                     deadline_s=args.deadline)
    print(jid)
    if not args.wait:
        return 0
    view = wait_for(args.spool, jid, timeout=args.timeout)
    print(f"repro submit: {view.summary()}", file=sys.stderr)
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service.client import format_jobs, list_jobs

    views = list_jobs(args.spool)
    if args.json:
        for v in views:
            record = {
                "id": v.id, "state": v.state, "spec": v.spec.as_dict(),
                "worker": v.worker, "n_leases": v.n_leases,
                "n_expired": v.n_expired, "error_type": v.error_type,
                "message": v.message, "elapsed": v.elapsed,
            }
            print(json.dumps(record, sort_keys=True))
    else:
        print(format_jobs(views))
    return 0


def cmd_spool(args: argparse.Namespace) -> int:
    from repro.service.compaction import (
        CompactionPolicy,
        compact,
        render_verify,
        verify_spool,
    )
    from repro.service.spool import JobSpool

    root = Path(args.spool)
    if args.spool_command == "compact":
        policy = CompactionPolicy(
            retain_terminal=args.retain_terminal, gc=not args.no_gc)
        stats = compact(JobSpool(root), policy)
        if args.json:
            print(json.dumps(stats.as_dict(), sort_keys=True))
        else:
            print(f"repro spool compact: generation {stats.generation}, "
                  f"{stats.n_events_folded} event(s) folded "
                  f"({stats.n_jobs} job(s): {stats.n_live} live, "
                  f"{stats.n_terminal} terminal, {stats.n_pruned} pruned); "
                  f"log {stats.log_bytes_before} -> {stats.log_bytes_after} "
                  f"bytes; GC {stats.gc_results} result(s)")
        return 0

    expect_jobs = None
    if args.expect_jobs:
        expect_path = Path(args.expect_jobs)
        if not expect_path.exists():
            raise ServiceError(f"no expected-jobs file at {expect_path}")
        try:
            expect_jobs = json.loads(expect_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ServiceError(
                f"expected-jobs file {expect_path} is not JSON: {exc}")
        if not isinstance(expect_jobs, dict):
            raise ServiceError(
                "expected-jobs file must map job id -> terminal state")
    report = verify_spool(root, expect_jobs=expect_jobs)
    if args.out:
        durable.replace_json(args.out, report)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(render_verify(report))
    return 0 if report["ok"] else 1
