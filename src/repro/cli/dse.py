"""The paper's workflows: ``sweep``, ``sampled-dse``, ``chronological``, ``importance``."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.cli import _make_executor, _make_ladder
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
from repro.parallel import ResilientExecutor
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


def sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))


def sampled_dse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("app", choices=sorted(SPEC2000_PROFILES))
    p.add_argument("--rates", type=float, nargs="+", default=[0.01, 0.03, 0.05])
    p.add_argument("--models", nargs="+", default=list(SAMPLED_DSE_MODELS),
                   choices=sorted(ALL_MODELS))
    p.add_argument("--cv-reps", type=int, default=5)


def chronological_args(p: argparse.ArgumentParser) -> None:
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


def importance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=list(FAMILY_ORDER))
    p.add_argument("--year", type=int, default=2005)
    p.add_argument("--top", type=int, default=8)


def cmd_sweep(args: argparse.Namespace) -> int:
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


def cmd_sampled_dse(args: argparse.Namespace) -> int:
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
    _report_degradations((o.label, o.deployed)
                         for res in results for o in res.outcomes.values())
    return 0


def _report_degradations(pairs) -> None:
    """One stderr line per ladder degradation, so they never pass silently.

    ``pairs`` yields ``(requested, deployed)`` model labels; ``deployed`` is
    None when no ladder ran.
    """
    for requested, deployed in pairs:
        if deployed is not None and deployed != requested:
            print(f"repro: degraded: {requested} -> {deployed}", file=sys.stderr)


def cmd_chronological(args: argparse.Namespace) -> int:
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
    _report_degradations(result.deployed.items())
    return 0


def cmd_importance(args: argparse.Namespace) -> int:
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
