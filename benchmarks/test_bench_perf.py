"""Benchmark: the perf harness runs clean and meets its speedup floor."""

from __future__ import annotations

import json
from pathlib import Path

from perf_harness import RESULTS_DIR, main


def test_perf_harness_smoke():
    out = RESULTS_DIR / "BENCH_perf.json"
    assert main(["--reduced", "--out", str(out)]) == 0

    report = json.loads(Path(out).read_text())
    sim = report["layers"]["batch_simulation"]
    assert sim["bit_identical"]
    assert sim["n_configs"] == 4608
    assert sim["speedup"] >= 5.0, f"batch speedup regressed: {sim['speedup']:.1f}x"
    assert report["layers"]["parallel_pool"]["bit_identical"]
    assert report["layers"]["result_cache"]["bit_identical"]
    assert report["rate_sweep"]["second_rate_nonzero_hits"]
