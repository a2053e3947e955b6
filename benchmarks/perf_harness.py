"""Perf harness: measure each hot-path layer and emit BENCH_perf.json.

Measures the three performance layers against the seed scalar baseline and
writes one machine-readable JSON file so future changes can see regressions:

1. **batch_simulation** — the vectorized ``evaluate_design_space_batch``
   versus the seed per-config scalar loop over the full 4608-point space,
   with a hard bit-identity check (nonzero exit on divergence).
2. **parallel_shm** — the chunked shared-memory executor path versus the
   serial batch kernel (reported honestly: on the ~100 ms full-space batch
   the pool startup usually dominates; the path exists for the heavyweight
   workloads layered on top).
3. **result_cache** — cold/warm/disk-warm sweep timings plus counter
   snapshots, and a two-rate ``run_sampled_dse`` sweep recording per-rate
   cache hits (the second rate must hit).
4. **observability** — the traced sweep versus the untraced sweep (tracing
   must be bit-identical and cheap), plus a small traced pipeline whose
   per-phase timings are embedded in the report and whose JSONL trace is
   written to ``benchmarks/results/BENCH_trace.jsonl`` for
   ``repro obs summarize``.
5. **cache_capture** — the probe-path overhead of tracing: warm all-hit
   passes of a chunked-sweep workload with tracing off vs on, where every
   probe becomes a ``cache.probe`` event in
   ``benchmarks/results/BENCH_probes.jsonl`` (the off path must stay
   near-free).

Run::

    PYTHONPATH=src python benchmarks/perf_harness.py [--reduced] [--out PATH]

Exit codes: 0 ok; 2 batched-vs-scalar or traced-vs-untraced divergence;
3 cache layers failed to produce second-rate hits or changed results.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import obs
from repro.cache import ResultCache, cache_snapshot
from repro.core import model_builders, run_sampled_dse
from repro.ml.preprocess import raw_matrix_cache
from repro.obs.summarize import phase_rows, read_trace, summarize_trace
from repro.parallel.executor import ProcessExecutor
from repro.simulator import (
    design_space_dataset,
    enumerate_design_space,
    get_profile,
    sweep_design_space,
)
from repro.simulator.interval import _miss

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def _timed(fn, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time; the miss-rate memo is cleared each run
    so every run pays the same leaf-evaluation cost the seed path paid."""
    best, result = float("inf"), None
    for _ in range(repeats):
        _miss.cache_clear()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_batch_simulation(configs, profile) -> dict:
    scalar_s, scalar = _timed(
        lambda: sweep_design_space(configs, profile, method="scalar"))
    batch_s, batch = _timed(
        lambda: sweep_design_space(configs, profile, method="batch"), repeats=3)
    return {
        "n_configs": len(configs),
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "speedup": scalar_s / batch_s,
        "bit_identical": bool(np.array_equal(scalar, batch)),
    }


def bench_parallel_shm(configs, profile) -> dict:
    serial_s, serial = _timed(
        lambda: sweep_design_space(configs, profile, method="batch"))
    with ProcessExecutor() as ex:
        workers = ex.max_workers
        parallel_s, par = _timed(
            lambda: sweep_design_space(configs, profile, method="batch",
                                       executor=ex))
        # second map reuses warm workers + per-process attach memo
        rewarm_s, _ = _timed(
            lambda: sweep_design_space(configs, profile, method="batch",
                                       executor=ex))
    return {
        "workers": workers,
        "serial_batch_seconds": serial_s,
        "parallel_cold_seconds": parallel_s,
        "parallel_warm_seconds": rewarm_s,
        "speedup_vs_serial_batch": serial_s / rewarm_s,
        "bit_identical": bool(np.array_equal(serial, par)),
    }


def bench_result_cache(configs, profile, tmp_dir: Path) -> dict:
    store = ResultCache(disk_root=tmp_dir)
    cold_s, cold = _timed(
        lambda: sweep_design_space(configs, profile, cache=store))
    warm_s, warm = _timed(
        lambda: sweep_design_space(configs, profile, cache=store))
    disk_store = ResultCache(disk_root=tmp_dir)  # cold memory, warm disk
    disk_s, from_disk = _timed(
        lambda: sweep_design_space(configs, profile, cache=disk_store))
    stats = store.stats()
    return {
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "disk_warm_seconds": disk_s,
        "warm_speedup": cold_s / warm_s,
        "bit_identical": bool(np.array_equal(cold, warm)
                              and np.array_equal(cold, from_disk)),
        "events": list(store.events) + list(disk_store.events),
        "stats": stats.as_dict(),
    }


def bench_rate_sweep(configs, profile, reduced: bool) -> dict:
    """Two-rate sampled-DSE sweep with per-rate cache-counter snapshots."""
    space = design_space_dataset(
        configs, sweep_design_space(configs, profile))
    builders = model_builders(("LR-B", "LR-E"), seed=0)
    rates = [0.01, 0.02]
    n_cv_reps = 2 if reduced else 5
    rng = np.random.default_rng(0)
    matrix_cache = raw_matrix_cache()
    per_rate = []
    for rate in rates:
        hits0, misses0 = matrix_cache.hits, matrix_cache.misses
        start = time.perf_counter()
        run_sampled_dse(space, builders, rate, rng, n_cv_reps=n_cv_reps)
        seconds = time.perf_counter() - start
        hits = matrix_cache.hits - hits0
        misses = matrix_cache.misses - misses0
        per_rate.append({
            "rate": rate,
            "seconds": seconds,
            "design_matrix_hits": hits,
            "design_matrix_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        })
    return {
        "rates": rates,
        "n_cv_reps": n_cv_reps,
        "models": list(builders),
        "per_rate": per_rate,
        "second_rate_nonzero_hits": per_rate[1]["design_matrix_hits"] > 0,
    }


def bench_observability(configs, profile, reduced: bool, trace_out: Path) -> dict:
    """Traced vs untraced sweep, plus a traced pipeline's phase breakdown."""
    untraced_s, untraced = _timed(
        lambda: sweep_design_space(configs, profile, method="batch"), repeats=3)

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.unlink(missing_ok=True)
    obs.reset_default_registry()
    obs.configure(trace_path=trace_out, registry=obs.default_registry())
    try:
        traced_s, traced = _timed(
            lambda: sweep_design_space(configs, profile, method="batch"),
            repeats=3)
        # A small end-to-end pipeline so the trace (and the per-phase rows
        # below) covers encode/train/predict/holdout, not just the sweep.
        space = design_space_dataset(
            configs, sweep_design_space(configs, profile))
        run_sampled_dse(space, model_builders(("LR-B", "LR-E"), seed=0),
                        0.01, np.random.default_rng(0),
                        n_cv_reps=2 if reduced else 5)
        obs.annotate("cache-snapshot", **cache_snapshot())
    finally:
        obs.shutdown()

    summary = summarize_trace(*read_trace(trace_out))
    return {
        "untraced_sweep_seconds": untraced_s,
        "traced_sweep_seconds": traced_s,
        "tracing_overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
        "bit_identical": bool(np.array_equal(untraced, traced)),
        "trace_file": str(trace_out),
        "n_spans": summary.n_spans,
        "phases": phase_rows(summary),
    }


def bench_cache_capture(configs, profile, reduced: bool,
                        trace_out: Path) -> dict:
    """Probe-path tracing overhead on an all-hit chunked-sweep workload.

    The design space is swept in chunks (one cache entry each): every pass
    scans all chunks in order while re-sweeping a 3-chunk hot set between
    them. One pass warms a tier big enough to hold every chunk, then timed
    passes are pure memory hits — the path the ``cache.probe`` event sits on.
    """
    n_chunks = 12 if reduced else 24
    passes = 2 if reduced else 3
    chunk_size = (len(configs) + n_chunks - 1) // n_chunks
    chunks = [configs[i:i + chunk_size]
              for i in range(0, len(configs), chunk_size)]
    hot = chunks[:3]

    def workload(store: ResultCache) -> float:
        total = 0.0
        for _ in range(passes):
            for i, chunk in enumerate(chunks):
                total += float(
                    sweep_design_space(chunk, profile, cache=store).sum())
                total += float(
                    sweep_design_space(hot[i % len(hot)], profile,
                                       cache=store).sum())
        return total

    warm = ResultCache(max_entries=len(chunks) + 1)
    workload(warm)
    off_s, _ = _timed(lambda: workload(warm), repeats=3)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.unlink(missing_ok=True)
    obs.configure(trace_path=trace_out)
    try:
        on_s, _ = _timed(lambda: workload(warm), repeats=3)
    finally:
        obs.shutdown()
    records, _ = read_trace(trace_out)
    return {
        "n_chunks": len(chunks),
        "passes": passes,
        "tracing_off_seconds": off_s,
        "tracing_on_seconds": on_s,
        "probe_overhead_pct": (on_s / off_s - 1.0) * 100.0,
        "probe_events": sum(1 for r in records if r["name"] == "cache.probe"),
        "trace_file": str(trace_out),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", default="gcc",
                        help="workload profile to benchmark (default gcc)")
    parser.add_argument("--reduced", action="store_true",
                        help="smoke mode: fewer CV repetitions in the rate sweep")
    parser.add_argument("--out", default=str(RESULTS_DIR / "BENCH_perf.json"),
                        metavar="PATH", help="where to write the JSON report")
    args = parser.parse_args(argv)

    import tempfile

    configs = list(enumerate_design_space())
    profile = get_profile(args.app)
    report = {
        "schema": "repro-bench-perf/1",
        "app": args.app,
        "reduced": args.reduced,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": __import__("os").cpu_count(),
        "unix_time": time.time(),
        "layers": {},
    }

    print(f"[1/6] batch simulation vs scalar oracle ({len(configs)} configs)...")
    report["layers"]["batch_simulation"] = sim = bench_batch_simulation(
        configs, profile)
    print(f"      scalar {sim['scalar_seconds']:.3f}s  batch "
          f"{sim['batch_seconds']:.3f}s  speedup {sim['speedup']:.1f}x  "
          f"bit-identical {sim['bit_identical']}")

    print("[2/6] zero-copy parallel path...")
    report["layers"]["parallel_shm"] = par = bench_parallel_shm(configs, profile)
    print(f"      serial {par['serial_batch_seconds']:.3f}s  parallel warm "
          f"{par['parallel_warm_seconds']:.3f}s  bit-identical "
          f"{par['bit_identical']}")

    print("[3/6] result cache (cold/warm/disk)...")
    with tempfile.TemporaryDirectory() as tmp:
        report["layers"]["result_cache"] = rc = bench_result_cache(
            configs, profile, Path(tmp))
    print(f"      cold {rc['cold_seconds']:.3f}s  warm {rc['warm_seconds']:.4f}s  "
          f"disk-warm {rc['disk_warm_seconds']:.4f}s")

    print("[4/6] two-rate sampled-DSE sweep with cache counters...")
    report["rate_sweep"] = sweep = bench_rate_sweep(configs, profile, args.reduced)
    for row in sweep["per_rate"]:
        print(f"      rate {row['rate']:.2f}: {row['seconds']:.2f}s  "
              f"matrix hits {row['design_matrix_hits']}  "
              f"misses {row['design_matrix_misses']}")

    print("[5/6] observability overhead (traced vs untraced sweep)...")
    trace_out = Path(args.out).parent / "BENCH_trace.jsonl"
    report["layers"]["observability"] = ob = bench_observability(
        configs, profile, args.reduced, trace_out)
    print(f"      untraced {ob['untraced_sweep_seconds']:.3f}s  traced "
          f"{ob['traced_sweep_seconds']:.3f}s  overhead "
          f"{ob['tracing_overhead_pct']:+.2f}%  bit-identical "
          f"{ob['bit_identical']}")
    for row in ob["phases"]:
        print(f"      phase {row['phase']:<12} count={row['count']:<4} "
              f"total={row['total_s']:.4f}s")

    print("[6/6] cache-probe tracing overhead (all-hit sweep)...")
    probes_out = Path(args.out).parent / "BENCH_probes.jsonl"
    report["layers"]["cache_capture"] = cc = bench_cache_capture(
        configs, profile, args.reduced, probes_out)
    print(f"      tracing off {cc['tracing_off_seconds']:.4f}s  on "
          f"{cc['tracing_on_seconds']:.4f}s  overhead "
          f"{cc['probe_overhead_pct']:+.2f}%  "
          f"({cc['probe_events']} probe events)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    print(f"wrote {trace_out}")
    print(f"wrote {probes_out}")

    diverged = not (sim["bit_identical"] and par["bit_identical"]
                    and ob["bit_identical"])
    if diverged:
        print("FATAL: batched/scalar or traced/untraced sweep outputs diverged",
              file=sys.stderr)
        return 2
    if not (rc["bit_identical"] and sweep["second_rate_nonzero_hits"]):
        print("FATAL: cache layers changed results or produced no reuse",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
