"""Command-line interface: run the paper's workflows from a shell.

Subcommands
-----------
``sweep``
    Simulate the full Table-1 design space for one application and print
    its cycle profile (the §4.1 range/variation row).
``sampled-dse``
    The Figure 1a workflow: sample, train, cross-validate, report
    estimated vs true error per model per rate.
``chronological``
    The Figure 1b workflow: train on year Y announcements, predict year
    Y+1, report per-model errors.
``importance``
    The §4.4 analysis: NN sensitivity importances and LR standardized
    betas for one processor family.
``cache``
    Inspect (``stats``) or empty (``clear``) the persistent result cache.
``obs``
    Observability utilities: ``repro obs summarize trace.jsonl`` renders a
    per-phase time/error breakdown of a recorded trace; ``repro obs
    aggregate --spool DIR`` merges a service's per-shard trace files and
    spool events into one causally-ordered timeline (plus summed shard
    metrics); ``repro obs report --spool DIR`` prints the p50/p95/p99 SLO
    table (queue-wait, lease-to-start, execute, end-to-end per job kind).
``doctor``
    Environment self-check: Python/numpy versions, cache-dir writability,
    shared-memory availability, seed reproducibility, service spool health
    (writability + flock, fd headroom, multiprocessing start method, stale
    leases), and the observability plane (status-file writability, shard
    metrics snapshot freshness vs. heartbeats, spool-vs-span clock skew).
    Exits nonzero when any check fails.
``serve`` / ``submit`` / ``jobs``
    The fault-tolerant job service (:mod:`repro.service`): ``serve`` runs
    N supervised worker shards against a durable spool directory,
    ``submit`` enqueues sweep/fit jobs (optionally blocking on the result
    with ``--wait``), ``jobs`` lists the queue. Clients and daemon
    coordinate purely through the spool directory. ``serve --obs`` turns on
    the service observability plane (per-shard trace files correlated by a
    per-job trace id); ``serve --status-file PATH`` keeps a live JSON
    health snapshot (shard liveness, queue depth, breaker states, SLO
    percentiles) refreshed from the supervision loop. The supervision loop
    auto-compacts the spool past a size/event threshold (tune with
    ``--compact-after-bytes/--compact-after-events``, disable with
    ``--no-auto-compact``).
``spool``
    Spool maintenance: ``repro spool compact --spool DIR`` folds the event
    log into an atomically swapped ``repro-spoolsnap/1`` snapshot and GCs
    orphaned checkpoints/results; ``repro spool verify --spool DIR`` is the
    fsck (snapshot schema, generation agreement, log fold, result
    checksums), exiting nonzero when the spool is damaged.

Robustness
----------
``sampled-dse`` and ``chronological`` accept ``--robust`` (train through
the :mod:`repro.robust` degradation ladder: numerical failures and gate
rejections fall back NN-E → NN-Q → LR-S → LR-E → mean baseline instead of
aborting) and ``--gate-max-error PCT`` (holdout-error bound for the
validation gate; implies ``--robust``). ``chronological`` additionally
accepts ``--records CSV`` for guarded ingest of an external announcement
archive — malformed rows are quarantined (report via
``--quarantine-report PATH``) rather than aborting the run. Data-integrity
failures exit 7, numerical failures 8, gate failures 9, and an exhausted
ladder 10.

Observability
-------------
Every workflow subcommand accepts ``--trace-file PATH`` (JSONL span stream
covering the sweep/encode/train/predict/holdout phases), ``--metrics-file
PATH`` (``repro-metrics/1`` counter/gauge/histogram snapshot plus a final
cache-counter snapshot), and ``--profile`` (per-phase span totals plus a
cProfile report of the whole command on stderr). All three are off by
default and leave results bit-identical — see :mod:`repro.obs`. An
unwritable ``--trace-file`` or ``--metrics-file`` path is a one-line
``repro: error:`` before any work starts.

Result caching
--------------
``sweep``, ``sampled-dse``, and ``chronological`` reuse expensive artifacts
(full-space cycle sweeps, encoded design matrices) through
:mod:`repro.cache`. ``--cache-dir PATH`` (or ``REPRO_CACHE_DIR``) persists
them across invocations; ``--no-cache`` recomputes everything, for
reproducibility audits. Under ``--trace-file`` every cache probe is one
``cache.probe`` event, which ``benchmarks/cache_oracle.py --trace``
replays offline.

Fault tolerance
---------------
The sweep-shaped subcommands (``sweep``, ``sampled-dse``, ``chronological``)
accept ``--parallel``, ``--retries N``, ``--task-timeout SEC``,
``--checkpoint PATH``, and ``--resume``; any of the latter four wraps the
run in a :class:`repro.parallel.ResilientExecutor`. Expected failures from
the :mod:`repro.errors` taxonomy exit with distinct codes (TaskFailed 3,
TaskTimeout 4, SweepAborted 5, CheckpointError 6, ServiceError 11,
ServiceOverloadError 12, CircuitOpenError 13, JobDeadlineExceeded 14) and a
one-line stderr message instead of a traceback. A hidden ``--chaos`` flag
drives the failure-injection harness for chaos runs (e.g.
``--chaos exc=0.1,crash=0.01``); ``serve`` has matching hidden
``--chaos-sigkill-at`` / ``--chaos-slow`` flags for supervision drills.

Examples
--------
::

    python -m repro sweep mcf
    python -m repro sampled-dse gcc --rates 0.01 0.05 --models NN-E LR-B
    python -m repro sampled-dse gcc --parallel --retries 2 \\
        --checkpoint run.jsonl --resume
    python -m repro chronological opteron-8 --models LR-E LR-S NN-Q
    python -m repro importance pentium-d
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core import (
    ALL_MODELS,
    NINE_MODELS,
    SAMPLED_DSE_MODELS,
    build_model,
    figure_chronological_table,
    figure_sampled_series,
    model_builders,
    run_chronological,
    run_rate_sweep,
)
from repro.core.chronological import chronological_datasets
from repro.errors import ReproError
from repro.parallel import (
    CheckpointJournal,
    Executor,
    FaultInjector,
    ProcessExecutor,
    ResilientExecutor,
    RetryPolicy,
    SerialExecutor,
)
from repro.simulator import (
    SPEC2000_PROFILES,
    design_space_dataset,
    enumerate_design_space,
    get_profile,
    sweep_design_space,
)
from repro.specdata import FAMILY_ORDER, generate_family_records
from repro.util.stats import profile_responses
from repro.util.tables import format_kv

__all__ = ["main", "build_parser"]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")


def _add_obs(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("observability")
    g.add_argument("--trace-file", default=None, metavar="PATH",
                   help="append JSONL span records (sweep/encode/train/"
                        "predict/holdout phases) to PATH")
    g.add_argument("--metrics-file", default=None, metavar="PATH",
                   help="write a JSON metrics snapshot (counters, histograms, "
                        "final cache counters) to PATH on exit")
    g.add_argument("--profile", action="store_true",
                   help="print per-phase span totals and a cProfile report "
                        "of the whole command to stderr")


def _add_cache(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("result cache")
    g.add_argument("--no-cache", action="store_true",
                   help="disable all result caching (reproducibility audits)")
    g.add_argument("--cache-dir", default=None, metavar="PATH",
                   help="persist cached results under PATH (also read from "
                        "the REPRO_CACHE_DIR environment variable)")


def _add_robust(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("robustness")
    g.add_argument("--robust", action="store_true",
                   help="train through the degradation ladder: numerical "
                        "failures and gate rejections fall back "
                        "NN-E > NN-Q > LR-S > LR-E > mean baseline instead "
                        "of aborting (clean runs are bit-identical)")
    g.add_argument("--gate-max-error", type=float, default=None, metavar="PCT",
                   help="holdout-error bound for the validation gate "
                        "(implies --robust; default 500)")


def _make_ladder(args: argparse.Namespace):
    """Build the degradation ladder the robustness flags describe (or None)."""
    if not (getattr(args, "robust", False)
            or getattr(args, "gate_max_error", None) is not None):
        return None
    from repro.robust import ValidationGate, default_ladder

    bound = args.gate_max_error if args.gate_max_error is not None else 500.0
    return default_ladder(seed=args.seed,
                          gate=ValidationGate(max_holdout_error=bound))


def _add_resilience(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("fault tolerance")
    g.add_argument("--parallel", action="store_true",
                   help="run tasks (sweep slices, holdout estimates) on a process pool")
    g.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry each failed task up to N times "
                        "(exponential backoff, deterministic jitter)")
    g.add_argument("--task-timeout", type=float, default=None, metavar="SEC",
                   help="per-task wall-clock budget; enforced with --parallel "
                        "by killing and rebuilding hung workers")
    g.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="JSONL journal recording each completed task")
    g.add_argument("--resume", action="store_true",
                   help="skip tasks already recorded in --checkpoint")
    # Chaos harness for fault-tolerance drills; deliberately undocumented in
    # --help. Spec: comma-separated exc=P, delay=P, crash=P, delay-seconds=S.
    g.add_argument("--chaos", default=None, help=argparse.SUPPRESS)


def _make_executor(args: argparse.Namespace) -> Executor:
    """Build the executor the resilience flags describe (caller closes it)."""
    inner: Executor = ProcessExecutor() if args.parallel else SerialExecutor()
    wants_resilience = (
        args.retries > 0 or args.task_timeout is not None
        or args.checkpoint is not None or args.chaos is not None
    )
    if not wants_resilience:
        return inner
    journal = (CheckpointJournal(args.checkpoint, resume=args.resume)
               if args.checkpoint is not None else None)
    injector = None
    if args.chaos is not None:
        try:
            injector = FaultInjector.parse(args.chaos, seed=args.seed)
        except ValueError as exc:
            raise ReproError(str(exc)) from None
    return ResilientExecutor(
        inner,
        retry=RetryPolicy(max_attempts=args.retries + 1),
        task_timeout=args.task_timeout,
        journal=journal,
        injector=injector,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'ML Models to Predict Performance of "
                    "Computer System Design Alternatives' (ICPP 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="simulate the full design space for one app")
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))
    _add_common(p)
    _add_resilience(p)
    _add_cache(p)
    _add_obs(p)

    p = sub.add_parser("sampled-dse", help="Figure 1a: sampled design-space exploration")
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("--rates", type=float, nargs="+", default=[0.01, 0.03, 0.05])
    p.add_argument("--models", nargs="+", default=list(SAMPLED_DSE_MODELS),
                   choices=sorted(ALL_MODELS))
    p.add_argument("--cv-reps", type=int, default=5)
    _add_common(p)
    _add_robust(p)
    _add_resilience(p)
    _add_cache(p)
    _add_obs(p)

    p = sub.add_parser("chronological", help="Figure 1b: predict next year's systems")
    p.add_argument("family", choices=list(FAMILY_ORDER))
    p.add_argument("--train-year", type=int, default=2005)
    p.add_argument("--test-year", type=int, default=2006)
    p.add_argument("--models", nargs="+", default=list(NINE_MODELS),
                   choices=sorted(ALL_MODELS))
    p.add_argument("--target", default="specint_rate",
                   help="specint_rate, specfp_rate, or app:<name>")
    p.add_argument("--records", default=None, metavar="CSV",
                   help="load announcement records from CSV through the "
                        "guarded ingest path (malformed rows are quarantined, "
                        "not fatal) instead of generating them")
    p.add_argument("--quarantine-report", default=None, metavar="PATH",
                   help="with --records: append the quarantine report "
                        "(JSONL) to PATH")
    _add_common(p)
    _add_robust(p)
    _add_resilience(p)
    _add_cache(p)
    _add_obs(p)

    p = sub.add_parser("importance", help="Sec 4.4: parameter importance analysis")
    p.add_argument("family", choices=list(FAMILY_ORDER))
    p.add_argument("--year", type=int, default=2005)
    p.add_argument("--top", type=int, default=8)
    _add_common(p)
    _add_obs(p)

    p = sub.add_parser("cache", help="inspect or clear the persistent result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "show cached-entry counts and on-disk size"),
        ("clear", "delete every cached entry"),
    ):
        sp = cache_sub.add_parser(name, help=help_text)
        sp.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="cache directory (default: REPRO_CACHE_DIR)")

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    sp = obs_sub.add_parser(
        "summarize", help="render a per-phase time/error breakdown of a trace")
    sp.add_argument("trace", metavar="TRACE.JSONL",
                    help="trace file recorded with --trace-file")
    sp = obs_sub.add_parser(
        "aggregate",
        help="merge a service spool's per-shard traces and queue events "
             "into one causally-ordered timeline; sum shard metrics")
    sp.add_argument("--spool", required=True, metavar="DIR",
                    help="service spool directory (the serve --spool value)")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="write the merged timeline (JSONL, repro-trace/1) "
                         "to PATH")
    sp.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the aggregated shard metrics (JSON, "
                         "repro-metrics/1 plus shards, per_shard and "
                         "conflicts) to PATH")
    sp = obs_sub.add_parser(
        "report",
        help="print the service SLO table: p50/p95/p99 queue-wait, "
             "lease-to-start, execute, and end-to-end latency per job kind")
    sp.add_argument("--spool", required=True, metavar="DIR",
                    help="service spool directory (the serve --spool value)")

    sub.add_parser(
        "doctor",
        help="check the environment (python/numpy, cache dir, shared "
             "memory, seed reproducibility, service spool); nonzero exit "
             "on failure")

    p = sub.add_parser(
        "serve",
        help="run the fault-tolerant sweep/prediction job service: N "
             "supervised worker shards draining a durable spool")
    p.add_argument("--spool", required=True, metavar="DIR",
                   help="spool directory (created if missing); clients "
                        "submit into the same directory")
    p.add_argument("--workers", type=int, default=2, metavar="N")
    p.add_argument("--max-depth", type=int, default=64, metavar="N",
                   help="admission bound: pending+running jobs beyond this "
                        "are rejected with the overload exit code")
    p.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                   help="job lease lifetime; a crashed worker's job "
                        "re-dispatches after this long")
    p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                   metavar="SEC",
                   help="a live worker silent this long is killed and "
                        "restarted")
    p.add_argument("--max-restarts", type=int, default=5, metavar="N",
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
    p.add_argument("--status-interval", type=float, default=2.0,
                   metavar="SEC",
                   help="status-file refresh cadence (default 2s)")
    p.add_argument("--no-auto-compact", action="store_true",
                   help="disable the supervision loop's automatic spool "
                        "compaction (compact manually with "
                        "'repro spool compact')")
    p.add_argument("--compact-after-bytes", type=int,
                   default=4 * 1024 * 1024, metavar="N",
                   help="auto-compact once the live event log exceeds this "
                        "many bytes (default 4 MiB)")
    p.add_argument("--compact-after-events", type=int, default=4096,
                   metavar="N",
                   help="auto-compact once this many events accumulate "
                        "since the last compaction (default 4096)")
    # Chaos harness for supervision drills; hidden like the sweep one.
    p.add_argument("--chaos-sigkill-at", type=int, default=None,
                   help=argparse.SUPPRESS)
    p.add_argument("--chaos-slow", type=float, default=None,
                   help=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("submit", help="submit a job to a running service spool")
    p.add_argument("--spool", required=True, metavar="DIR")
    p.add_argument("kind", choices=["sweep", "fit"])
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("--start", type=int, default=0,
                   help="design-space slice start (sweep jobs)")
    p.add_argument("--stop", type=int, default=None,
                   help="design-space slice stop (sweep jobs)")
    p.add_argument("--n-instructions", type=int, default=100_000_000)
    p.add_argument("--model", default="LR-E",
                   help="model label for fit jobs (default LR-E)")
    p.add_argument("--rate", type=float, default=0.05,
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
    _add_common(p)

    p = sub.add_parser("jobs", help="list the jobs in a service spool")
    p.add_argument("--spool", required=True, metavar="DIR")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per job instead of the table")

    p = sub.add_parser(
        "spool",
        help="spool maintenance: fold history into a crash-consistent "
             "snapshot (compact) or fsck the spool (verify)")
    spool_sub = p.add_subparsers(dest="spool_command", required=True)
    sp = spool_sub.add_parser(
        "compact",
        help="fold the event log into a repro-spoolsnap/1 snapshot "
             "(atomic swap), truncate the live tail, GC orphaned "
             "checkpoints/results")
    sp.add_argument("--spool", required=True, metavar="DIR",
                    help="service spool directory (the serve --spool value)")
    sp.add_argument("--retain-terminal", type=int, default=None, metavar="N",
                    help="keep only the N most recent terminal jobs in the "
                         "snapshot (default: keep all)")
    sp.add_argument("--no-gc", action="store_true",
                    help="skip deleting orphaned checkpoint journals and "
                         "result files for pruned jobs")
    sp.add_argument("--json", action="store_true",
                    help="print the compaction stats as JSON")
    sp = spool_sub.add_parser(
        "verify",
        help="fsck the spool: snapshot schema, generation agreement, log "
             "fold, result checksums, checkpoint orphans; nonzero exit on "
             "failure")
    sp.add_argument("--spool", required=True, metavar="DIR",
                    help="service spool directory (the serve --spool value)")
    sp.add_argument("--json", action="store_true",
                    help="print the repro-spoolverify/1 report as JSON")
    sp.add_argument("--out", default=None, metavar="PATH",
                    help="also write the repro-spoolverify/1 report to PATH")
    sp.add_argument("--expect-jobs", default=None, metavar="FILE",
                    help="oracle check: JSON file mapping job id -> expected "
                         "terminal state; lost/mismatched jobs fail the "
                         "verify")

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = list(enumerate_design_space())
    # Task-level runs (a resilient executor) bypass the cycles cache: a
    # cache hit would skip dispatch entirely, leaving nothing for the
    # journal/retry machinery.
    with _make_executor(args) as ex:
        cached = not args.no_cache and not isinstance(ex, ResilientExecutor)
        cycles = sweep_design_space(configs, get_profile(args.app), executor=ex,
                                    cache=cached)
    prof = profile_responses(cycles)
    print(f"{args.app}: {len(configs)} configurations")
    print(f"  cycle range (best/worst)   : {prof.range:.2f}x")
    print(f"  variation (std/mean)       : {prof.variation:.3f}")
    print(f"  fastest configuration      : {configs[int(np.argmin(cycles))].short_label()}")
    print(f"  slowest configuration      : {configs[int(np.argmax(cycles))].short_label()}")
    return 0


def _cmd_sampled_dse(args: argparse.Namespace) -> int:
    configs = list(enumerate_design_space())
    space = design_space_dataset(
        configs, sweep_design_space(configs, get_profile(args.app),
                                    cache=not args.no_cache))
    builders = model_builders(tuple(args.models), seed=args.seed)
    rng = np.random.default_rng(args.seed)
    ladder = _make_ladder(args)
    with _make_executor(args) as ex:
        results = run_rate_sweep(space, builders, args.rates, rng,
                                 n_cv_reps=args.cv_reps, executor=ex,
                                 ladder=ladder)
    print(figure_sampled_series(args.app, results, args.models))
    _report_degradations(o for res in results for o in res.outcomes.values())
    return 0


def _report_degradations(outcomes) -> None:
    """One stderr line per ladder degradation, so they never pass silently."""
    for o in outcomes:
        if getattr(o, "degraded", False):
            print(f"repro: degraded: {o.label} -> {o.deployed}", file=sys.stderr)


def _cmd_chronological(args: argparse.Namespace) -> int:
    if args.records is not None:
        from repro.robust import read_records_checked

        records, report = read_records_checked(
            args.records, report_path=args.quarantine_report)
        if report.n_quarantined:
            print(f"repro: {report.summary()}", file=sys.stderr)
        records = [r for r in records if r.family == args.family]
    else:
        records = generate_family_records(args.family, seed=args.seed)
    builders = model_builders(tuple(args.models), seed=args.seed)
    ladder = _make_ladder(args)
    with _make_executor(args) as ex:
        result = run_chronological(
            args.family, builders, args.train_year, args.test_year,
            seed=args.seed, target=args.target, records=records, executor=ex,
            ladder=ladder,
        )
    print(figure_chronological_table(result))
    print(f"\nbest: {result.best_label} at {result.best_error:.2f}%")
    for requested, got in result.degraded_labels().items():
        print(f"repro: degraded: {requested} -> {got}", file=sys.stderr)
    return 0


def _cmd_importance(args: argparse.Namespace) -> int:
    records = generate_family_records(args.family, seed=args.seed)
    train, _ = chronological_datasets(
        args.family, args.year, args.year + 1, records=records)
    lr = build_model("LR-E").fit(train)
    betas = dict(sorted(((k, abs(v)) for k, v in lr.standardized_betas.items()),
                        key=lambda kv: -kv[1])[:args.top])
    print(format_kv(betas, title=f"{args.family}: LR-E |standardized beta|"))
    nn = build_model("NN-Q", seed=args.seed).fit(train)
    imps = dict(list(nn.importances().items())[:args.top])
    print()
    print(format_kv(imps, title=f"{args.family}: NN-Q sensitivity importance"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.cache import ResultCache, cache_snapshot

    disk_root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    store = ResultCache(disk_root=disk_root)
    where = str(disk_root) if disk_root else "(memory only; set REPRO_CACHE_DIR)"
    if args.cache_command == "stats":
        stats = store.stats()
        print(format_kv(
            {
                "disk entries": stats.disk_entries,
                "disk bytes": store.disk.size_bytes() if store.disk else 0,
            },
            title=f"result cache at {where}",
        ))
        # The same per-run counters a ``--metrics-file`` export records under
        # its "cache" key, so the two views use one vocabulary. Counters are
        # per-process: a fresh CLI invocation starts from zero; the export
        # written at the end of a run is the durable record.
        snap = cache_snapshot()
        print()
        print(format_kv(
            {k: v for k, v in snap["result_cache"].items()
             if not k.startswith("disk_")},
            title="this process (result_cache counters)",
        ))
        if snap["by_namespace"]:
            print()
            rows = {f"{ns} hits/misses": f"{c['hits']}/{c['misses']}"
                    for ns, c in snap["by_namespace"].items()}
            print(format_kv(rows, title="this process (per-namespace probes)"))
        print()
        print(format_kv(snap["encoder_matrix_cache"],
                        title="this process (encoder_matrix_cache counters)"))
        return 0
    dropped = store.clear()
    print(f"cleared {dropped.get('disk', 0)} disk entr"
          f"{'y' if dropped.get('disk', 0) == 1 else 'ies'} at {where}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.robust import run_doctor

    report = run_doctor()
    report.render()
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, WorkerSupervisor

    injector = None
    if args.chaos_sigkill_at is not None or args.chaos_slow is not None:
        injector = FaultInjector(
            seed=args.seed,
            sigkill_indices=(args.chaos_sigkill_at,)
            if args.chaos_sigkill_at is not None else (),
            slow_indices=(0,) if args.chaos_slow is not None else (),
            slow_seconds=args.chaos_slow or 0.2,
        )
    config = ServiceConfig(
        root=args.spool,
        workers=args.workers,
        max_depth=args.max_depth,
        lease_ttl=args.lease_ttl,
        heartbeat_timeout=args.heartbeat_timeout,
        max_restarts=args.max_restarts,
        drain_on_idle=args.drain_on_idle,
        idle_grace=args.idle_grace,
        max_runtime=args.max_runtime,
        seed=args.seed,
        injector=injector,
        obs=args.obs,
        status_file=args.status_file,
        status_interval=args.status_interval,
        auto_compact=not args.no_auto_compact,
        compact_max_log_bytes=args.compact_after_bytes,
        compact_max_events=args.compact_after_events,
    )
    sup = WorkerSupervisor(config)
    print(f"repro serve: {args.workers} worker(s) on spool {args.spool} "
          f"(max depth {args.max_depth}, lease ttl {args.lease_ttl:g}s)",
          file=sys.stderr)
    rc = sup.run()
    for event in sup.events:
        print(f"repro serve: {event}", file=sys.stderr)
    return rc


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import JobSpec, submit_job, wait_for

    spec = JobSpec(
        kind=args.kind, app=args.app, start=args.start, stop=args.stop,
        n_instructions=args.n_instructions, model=args.model,
        rate=args.rate, seed=args.seed, robust=args.robust)
    jid = submit_job(args.spool, spec, deadline_s=args.deadline)
    print(jid)
    if not args.wait:
        return 0
    view = wait_for(args.spool, jid, timeout=args.timeout)
    print(f"repro submit: {view.summary()}", file=sys.stderr)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import format_jobs, list_jobs

    views = list_jobs(args.spool)
    if args.json:
        for v in views:
            record = {
                "id": v.id, "state": v.state, "spec": v.spec.as_dict(),
                "worker": v.worker, "n_leases": v.n_leases,
                "n_expired": v.n_expired, "error_type": v.error_type,
                "message": v.message, "elapsed": v.elapsed,
            }
            print(_json.dumps(record, sort_keys=True))
    else:
        print(format_jobs(views))
    return 0


def _cmd_spool(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.errors import ServiceError
    from repro.service import JobSpool
    from repro.service.compaction import (
        CompactionPolicy,
        compact,
        render_verify,
        verify_spool,
    )
    from repro.util import durable

    root = Path(args.spool)
    if not root.is_dir():
        raise ServiceError(f"no spool directory at {root}")

    if args.spool_command == "compact":
        policy = CompactionPolicy(
            retain_terminal=args.retain_terminal,
            gc_checkpoints=not args.no_gc,
            gc_results=not args.no_gc,
        )
        spool = JobSpool(root)
        stats = compact(spool, policy)
        if args.json:
            print(_json.dumps(stats.as_dict(), sort_keys=True))
        else:
            print(f"repro spool compact: generation {stats.generation}, "
                  f"{stats.n_events_folded} event(s) folded "
                  f"({stats.n_jobs} job(s): {stats.n_live} live, "
                  f"{stats.n_terminal} terminal, {stats.n_pruned} pruned); "
                  f"log {stats.log_bytes_before} -> {stats.log_bytes_after} "
                  f"bytes; GC {stats.gc_checkpoints} checkpoint(s), "
                  f"{stats.gc_results} result(s)")
        return 0

    expect_jobs = None
    if args.expect_jobs:
        expect_path = Path(args.expect_jobs)
        if not expect_path.exists():
            raise ServiceError(f"no expected-jobs file at {expect_path}")
        try:
            expect_jobs = _json.loads(expect_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ServiceError(
                f"expected-jobs file {expect_path} is not JSON: {exc}")
        if not isinstance(expect_jobs, dict):
            raise ServiceError(
                "expected-jobs file must map job id -> terminal state")
    report = verify_spool(root, expect_jobs=expect_jobs)
    if args.out:
        durable.replace_file(
            args.out,
            (_json.dumps(report, indent=2, sort_keys=True) + "\n").encode(),
            sync=False)
    if args.json:
        print(_json.dumps(report, sort_keys=True))
    else:
        print(render_verify(report))
    return 0 if report["ok"] else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from pathlib import Path

    if args.obs_command == "summarize":
        from repro.obs import summarize_file

        trace_path = Path(args.trace)
        if not trace_path.exists():
            raise ReproError(f"no such trace file: {trace_path}")
        print(summarize_file(trace_path))
        return 0

    root = Path(args.spool)
    if not root.is_dir():
        raise ReproError(f"no spool directory at {root}")

    if args.obs_command == "aggregate":
        import json as _json

        from repro.obs import (
            aggregate_metrics,
            merge_timeline,
            read_shard_metrics,
            write_timeline,
        )
        from repro.util import durable

        timeline = merge_timeline(root)
        print(f"timeline: {timeline.summary()}")
        if args.out:
            out = write_timeline(timeline, args.out)
            print(f"timeline: wrote {len(timeline.records)} record(s) -> {out}")
        snapshots, unreadable = read_shard_metrics(root)
        agg = aggregate_metrics(snapshots)
        print(f"metrics: {len(agg['metrics'])} metric(s) across "
              f"{len(agg['shards'])} shard snapshot(s)"
              + (f", {unreadable} unreadable file(s) skipped"
                 if unreadable else ""))
        for name in agg["conflicts"]:
            print(f"metrics: conflict: shards disagree on {name!r} "
                  "(kept first shard's)", file=sys.stderr)
        if args.metrics_out:
            durable.replace_file(args.metrics_out, (_json.dumps(
                agg, indent=2, sort_keys=True, default=str) + "\n").encode(),
                sync=False)
            print(f"metrics: wrote aggregate -> {args.metrics_out}")
        return 0

    # report
    from repro.obs import compute_slo_for_spool, render_slo_report

    slos = compute_slo_for_spool(root)
    print(render_slo_report(slos, title=f"SLO report for spool {root}"))
    return 0


def _check_output(flag: str, path: str) -> None:
    """Fail before any work starts when an output ``path`` is unwritable."""
    from pathlib import Path

    out = Path(path)
    try:
        existed = out.exists()
        out.parent.mkdir(parents=True, exist_ok=True)
        out.open("a").close()
        if not existed:
            out.unlink()
    except OSError as exc:
        raise ReproError(f"{flag} {path}: cannot write ({exc})") from None


def _setup_observability(args: argparse.Namespace) -> bool:
    """Configure tracing/metrics/profiling from the obs flags; True if any on.

    Every flag installs the same registry-backed tracer: its
    ``span.<name>.seconds`` histograms are the per-phase table ``--profile``
    prints, next to one ``cProfile`` run over the whole command.
    """
    trace_file = getattr(args, "trace_file", None)
    metrics_file = getattr(args, "metrics_file", None)
    want_profile = getattr(args, "profile", False)
    if not (trace_file or metrics_file or want_profile):
        return False
    for flag, path in (("--trace-file", trace_file),
                       ("--metrics-file", metrics_file)):
        if path:
            _check_output(flag, path)
    from repro import obs

    obs.configure(trace_path=trace_file, registry=obs.default_registry())
    if want_profile:
        import cProfile

        args.profiler = cProfile.Profile()
        args.profiler.enable()
    return True


def _profile_report(profiler, registry, top: int = 20) -> str:
    """``--profile`` report: per-phase span totals, then pstats' top ``top``."""
    import io
    import pstats

    sections = {name[len("span."):-len(".seconds")]: registry.get(name)
                for name in registry.names()
                if name.startswith("span.") and name.endswith(".seconds")}
    lines = ["profiled sections (wall-clock):"]
    width = max(map(len, sections), default=0)
    for name, hist in sorted(sections.items(), key=lambda kv: -kv[1].sum):
        lines.append(f"  {name.ljust(width)}  calls={hist.count:<5d}"
                     f"  total={hist.sum:.4f}s")
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative") \
        .print_stats(top)
    lines.append(buf.getvalue().rstrip())
    return "\n".join(lines)


def _finalize_observability(args: argparse.Namespace) -> None:
    """Persist the final snapshots: trace event, metrics file, profile report.

    Cache counters are per-instance and die with the process, so the final
    snapshot is written into both exports — the durable record that
    ``repro cache stats`` output can be reconciled against.
    """
    from repro import obs
    from repro.cache import cache_snapshot

    profiler = getattr(args, "profiler", None)
    if profiler is not None:
        profiler.disable()
    snapshot = cache_snapshot()
    tracer = obs.get_tracer()
    if tracer is not None:
        obs.annotate("cache-snapshot", **snapshot)
    metrics_file = getattr(args, "metrics_file", None)
    if metrics_file:
        obs.default_registry().export(metrics_file, extra={"cache": snapshot})
    if profiler is not None:
        print(_profile_report(profiler, obs.default_registry()),
              file=sys.stderr)
    obs.shutdown()


_COMMANDS = {
    "sweep": _cmd_sweep,
    "sampled-dse": _cmd_sampled_dse,
    "chronological": _cmd_chronological,
    "importance": _cmd_importance,
    "cache": _cmd_cache,
    "obs": _cmd_obs,
    "doctor": _cmd_doctor,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "spool": _cmd_spool,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected failures (the :mod:`repro.errors` taxonomy) become a one-line
    stderr message plus the class's distinct exit code — no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        parser.error("--resume requires --checkpoint PATH")
    if getattr(args, "retries", 0) < 0:
        parser.error("--retries must be >= 0")
    if getattr(args, "no_cache", False):
        from repro.cache import set_enabled

        set_enabled(False)
    cache_dir = getattr(args, "cache_dir", None)
    if args.command != "cache" and cache_dir:
        from repro.cache import configure

        configure(disk_root=cache_dir)
    observed = False
    try:
        observed = _setup_observability(args)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed stdout (e.g. `repro obs summarize
        # t.jsonl | head`). Point stdout at devnull so the interpreter's
        # exit flush cannot raise again, and use the conventional 128+PIPE.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if observed:
            _finalize_observability(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
