"""Command-line interface: run the paper's workflows from a shell.

``_COMMANDS`` below is the whole command surface: each entry names a
command's one-line help, the function declaring its arguments, and its
handler. The handlers live with their command group: :mod:`.dse`
(``sweep``, ``sampled-dse`` for Figure 1a and Table 3, ``chronological``
for Figure 1b and Table 2, ``importance`` for §4.4), :mod:`.cache`
(``cache stats|clear``), :mod:`.obs` (``obs summarize|aggregate|report``)
and :mod:`.service` (``serve``, ``submit``, ``jobs``, ``spool
compact|verify``, the :mod:`repro.service` job service, whose clients and
daemon meet only in the spool directory). ``doctor`` is the environment
self-check of :mod:`repro.robust.doctor`. This module also owns the flag
groups several commands share:

* ``--seed``;
* observability: ``--trace-file PATH`` (JSONL span stream),
  ``--metrics-file PATH`` (``repro-metrics/1`` snapshot plus the final
  cache counters) and ``--profile`` (per-phase span totals and a cProfile
  report on stderr). All are off by default and leave results
  bit-identical; an unwritable path is a one-line error before any work;
* result cache: ``--cache-dir PATH`` (or ``REPRO_CACHE_DIR``) persists
  sweeps and design matrices across runs, ``--no-cache`` recomputes all;
* robustness: ``--robust`` trains through the degradation ladder
  (NN-E > NN-Q > LR-S > LR-E > mean baseline) and ``--gate-max-error PCT``
  bounds the validation gate; each degradation is one stderr line;
* fault tolerance: ``--parallel``, ``--retries N``, ``--task-timeout SEC``,
  ``--checkpoint PATH`` and ``--resume`` wrap the run in a
  :class:`repro.parallel.ResilientExecutor`. A hidden ``--chaos`` flag
  (``exc=0.1,crash=0.01``) drives the fault injector; ``serve`` has a
  hidden ``--chaos-sigkill-at``;
* ``--spool DIR``: commands that read a spool check it exists first.

Expected failures from the :mod:`repro.errors` taxonomy print one
``repro: error:`` line and exit with their class's code: usage 2,
ReproError 1, TaskFailed 3, TaskTimeout 4, SweepAborted 5, CheckpointError
6, data integrity 7, numerical 8, gate 9, exhausted ladder 10,
ServiceError 11 (a missing spool, too), ServiceOverloadError 12,
CircuitOpenError 13, JobDeadlineExceeded 14.

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
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError, ServiceError
from repro.parallel import (
    CheckpointJournal,
    Executor,
    FaultInjector,
    ProcessExecutor,
    ResilientExecutor,
    SerialExecutor,
)

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


_SPOOL_HELP = "service spool directory (the serve --spool value)"


def _add_spool(p: argparse.ArgumentParser, help: str | None = _SPOOL_HELP,
               must_exist: bool = True) -> None:
    """``--spool DIR``, checked by ``main`` unless the command creates it.

    A missing spool is a ``ServiceError`` (exit 11) before the command runs.
    """
    p.add_argument("--spool", required=True, metavar="DIR", help=help)
    p.set_defaults(spool_must_exist=must_exist)


def _make_ladder(args: argparse.Namespace):
    """Build the degradation ladder the robustness flags describe (or None)."""
    if not (getattr(args, "robust", False)
            or getattr(args, "gate_max_error", None) is not None):
        return None
    from repro.robust import ValidationGate, default_ladder

    gate = (ValidationGate() if args.gate_max_error is None
            else ValidationGate(max_holdout_error=args.gate_max_error))
    return default_ladder(seed=args.seed, gate=gate)


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
        max_attempts=args.retries + 1,
        task_timeout=args.task_timeout,
        journal=journal,
        injector=injector,
        seed=args.seed,
    )


# The command modules import the helpers above.
from repro.cli import cache, dse, obs, service  # noqa: E402


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.robust import run_doctor

    report = run_doctor()
    report.render()
    return report.exit_code


#: The flag groups every paper workflow shares, in ``--help`` order.
_WORKFLOW = (_add_common, _add_robust, _add_resilience, _add_cache, _add_obs)

#: Every command in ``--help`` order: its one-line help, the functions that
#: declare its arguments (its own first, then shared groups) and its handler.
_COMMANDS = {
    "sweep": ("simulate the full design space for one app",
              (dse.sweep_args, _add_common, _add_resilience, _add_cache,
               _add_obs), dse.cmd_sweep),
    "sampled-dse": ("Figure 1a: sampled design-space exploration",
                    (dse.sampled_dse_args, *_WORKFLOW), dse.cmd_sampled_dse),
    "chronological": ("Figure 1b: predict next year's systems",
                      (dse.chronological_args, *_WORKFLOW),
                      dse.cmd_chronological),
    "importance": ("Sec 4.4: parameter importance analysis",
                   (dse.importance_args, _add_common, _add_obs),
                   dse.cmd_importance),
    "cache": ("inspect or clear the persistent result cache",
              (cache.cache_args,), cache.cmd_cache),
    "obs": ("observability utilities", (obs.obs_args,), obs.cmd_obs),
    "doctor": ("check the environment (python/numpy, cache dir, shared "
               "memory, seed reproducibility, service spool); nonzero exit "
               "on failure", (), _cmd_doctor),
    "serve": ("run the fault-tolerant sweep/prediction job service: N "
              "supervised worker shards draining a durable spool",
              (service.serve_args, _add_common), service.cmd_serve),
    "submit": ("submit a job to a running service spool",
               (service.submit_args, _add_common), service.cmd_submit),
    "jobs": ("list the jobs in a service spool",
             (service.jobs_args,), service.cmd_jobs),
    "spool": ("spool maintenance: fold history into a crash-consistent "
              "snapshot (compact) or fsck the spool (verify)",
              (service.spool_args,), service.cmd_spool),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'ML Models to Predict Performance of "
                    "Computer System Design Alternatives' (ICPP 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, declarers, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for declare in declarers:
            declare(p)
    return parser


def _check_output(flag: str, path: str) -> None:
    """Fail before any work starts when an output ``path`` is unwritable."""
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
    if getattr(args, "cache_dir", None):
        from repro.cache import configure

        configure(disk_root=args.cache_dir)
    observed = False
    try:
        if getattr(args, "spool_must_exist", False) \
                and not Path(args.spool).is_dir():
            raise ServiceError(f"no spool directory at {Path(args.spool)}")
        observed = _setup_observability(args)
        _, _, run = _COMMANDS[args.command]
        return run(args)
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
