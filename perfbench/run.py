#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {dse,chrono,sim,serve} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``, its times scaled to a reference
host speed (``perfbench/host.py``). ``--trace 1`` runs the workload
three times in one process, untraced, traced and untraced again, checks
that the passes computed the same numbers, and reports the per-layer
metrics, including the tracing overhead. Either way the workload's outputs are checked and the
last line of standard output is::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A record stamped with the code version, the seed and a host fingerprint is
written to ``perfbench/out/``, and a traced run writes its spans next to it
as a ``repro-trace/1`` file that ``repro obs summarize`` reads.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.host import adopt_orphans, calibrate, host_fingerprint  # noqa: E402
from perfbench.host import process_age_s, scale, stop_children  # noqa: E402

#: Set-ups measured per untraced run (this process plus fresh processes).
SETUP_REPEATS = 3
#: Calibration kernels run with each set-up (see ``perfbench/host.py``).
SETUP_KERNELS = 10
CHILD_TIMEOUT_S = 120


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_sample(w) -> tuple[float, list[float]]:
    """Calibrate the host, then set up ``w``; return the process's age
    without the calibration, and the calibration.

    The calibration comes first because ``serve``'s set-up leaves the
    service running, and its idle work would slow the kernel.
    """
    t0 = time.perf_counter()
    kernel = calibrate(SETUP_KERNELS, all_cpus=True)
    kernel_s = time.perf_counter() - t0
    w.setup(traced=False)
    return process_age_s() - kernel_s, kernel


def child_setup_sample(args: argparse.Namespace) -> tuple[float, list[float]]:
    """:func:`setup_sample` of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(out.stdout.splitlines()[-1])["setup"])


def run_untraced(cls, args, work_dir):
    w = cls(args.seed, args.seconds, work_dir)
    try:
        setup = [setup_sample(w)]
        result = w.run()
        problems = w.check(result)
    finally:
        w.close()
    setup += [child_setup_sample(args) for _ in range(SETUP_REPEATS - 1)]
    rss = result.peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(scale(age, k) for age, k in setup),
               "wall_s": result.wall_s, "peak_rss_mb": rss}
    return result, metrics, problems, {"setup_samples": setup, "raw_wall_s": result.raw_s,
                                       "laps_s": result.laps_s,
                                       "kernel_s": result.kernel_s, **result.notes}


def untraced_pass(cls, args, work_dir):
    w = cls(args.seed, args.seconds, work_dir)
    try:
        w.setup(traced=False)
        return w.run()
    finally:
        w.close()


def run_traced(cls, args, work_dir):
    """Untraced, traced, untraced again: the first pass also pays the
    process's one-time costs, so the overhead compares the traced pass
    with the second untraced one."""
    from perfbench.layers import self_times, trace_pass

    base = untraced_pass(cls, args, work_dir)
    w = cls(args.seed, args.seconds, work_dir)
    try:
        w.setup(traced=True)
        result, records, wall = trace_pass(w.run)
        problems = w.check(result)
    finally:
        w.close()
    again = untraced_pass(cls, args, work_dir)
    if not result.outputs == base.outputs == again.outputs:
        problems.append("traced and untraced passes computed different numbers")

    layers, root_time = self_times(records)
    layers.update(result.metrics)
    layers.update(getattr(w, "closing_metrics", {}))
    n_swept = layers.pop("n_swept_configs", 0)
    if n_swept:
        layers["sweep_configs_per_s"] = n_swept / layers["simulator.sweep_s"]
    n_instr = layers.pop("n_detailed_instructions", 0)
    if n_instr:
        layers["detailed_kinst_per_s"] = n_instr / 1e3 / layers["simulator.detailed_s"]
    # Unscaled host seconds on both sides: the traced pass does not calibrate.
    layers["obs.trace_overhead_pct"] = 100.0 * (result.raw_s / again.raw_s - 1.0)
    layers["obs.uncovered_pct"] = 100.0 * (1.0 - root_time / wall)

    trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for rec in records + getattr(w, "shard_spans", []):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return result, layers, problems, {"trace": str(trace_path.relative_to(ROOT)),
                                      "untraced_raw_s": again.raw_s,
                                      "traced_raw_s": result.raw_s}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("dse", "chrono", "sim", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="length of serve's steady phase; the batch workloads "
                        "run a fixed amount of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload; on every way out, stop and reap every process the
    run started, and any they left behind."""
    args = parse_args(argv)
    adopt_orphans()
    try:
        return run(args)
    finally:
        stop_children()


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench.batch import Chrono, Dse, Sim
    from perfbench.serve import Serve

    cls = {"dse": Dse, "chrono": Chrono, "sim": Sim, "serve": Serve}[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            w = cls(args.seed, args.seconds, work_dir)
            try:
                print(json.dumps({"setup": setup_sample(w)}))
            finally:
                w.close()
            return 0
        runner = run_traced if args.trace else run_untraced
        result, values, problems, extra = runner(cls, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared[kind]}
    line = {"correct": not problems, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}

    from repro.cache.fingerprint import code_version

    record = {"schema": "perfbench-record/1", "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "code_version": code_version(),
              "host": host_fingerprint(), "problems": problems, **extra,
              "result": line}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"record={record_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
