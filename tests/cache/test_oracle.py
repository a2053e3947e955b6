"""Tests for the LRU-vs-Belady oracle benchmark and its trace replay.

``benchmarks/`` is not a package; the oracle module is imported by path,
the same way the benchmark script itself runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import cache_oracle  # noqa: E402
from cache_oracle import (  # noqa: E402
    belady_hit_rate,
    evaluate_trace,
    load_captured_trace,
    main,
    replay_lru,
    run_checks,
)

from repro import obs  # noqa: E402
from repro.cache import ResultCache  # noqa: E402


# -- Belady oracle -----------------------------------------------------------


def test_belady_exact_on_tiny_trace():
    # capacity 2, trace a b c a b: OPT evicts c (never reused) -> 2 hits
    assert belady_hit_rate(list("abcab"), 2) == pytest.approx(2 / 5)


def test_belady_perfect_when_everything_fits():
    keys = list("abcabcabc")
    assert belady_hit_rate(keys, 3) == pytest.approx(6 / 9)  # only cold misses


def test_belady_capacity_one():
    assert belady_hit_rate(list("aabbc"), 1) == pytest.approx(2 / 5)


def test_belady_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        belady_hit_rate(list("ab"), 0)


def test_belady_dominates_lru_on_random_trace():
    import random

    rng = random.Random(42)
    keys = [f"k{rng.randrange(60)}" for _ in range(3000)]
    for capacity in (4, 10, 25):
        oracle = belady_hit_rate(keys, capacity)
        rate = replay_lru(keys, capacity)["hit_rate"]
        assert rate <= oracle + 1e-9, \
            f"lru@{capacity} beat the oracle: {rate} > {oracle}"


def test_belady_beats_lru_on_adversarial_loop():
    # cyclic scan of N+1 keys through capacity N: LRU gets zero hits,
    # OPT keeps N-1 of them resident
    keys = [f"k{i % 5}" for i in range(500)]
    assert replay_lru(keys, 4)["hit_rate"] == 0.0
    assert belady_hit_rate(keys, 4) > 0.7


# -- replay + checks ---------------------------------------------------------


def test_replay_lru_counters_match_trace():
    keys = ["a", "b", "a", "c", "a"]
    counters = replay_lru(keys, 10)
    assert counters["hits"] == 2 and counters["misses"] == 3
    assert counters["evictions"] == 0
    assert counters["hit_rate"] == pytest.approx(2 / 5)


def test_evaluate_trace_curves_cover_lru_and_oracle():
    keys = [f"k{i % 30}" for i in range(600)]
    entry = evaluate_trace("loop", keys, fractions=(0.2, 0.5))
    assert entry["n_distinct"] == 30
    assert len(entry["curves"]) == 2
    for curve in entry["curves"]:
        assert set(curve["hit_rate"]) == {"lru", "oracle"}
        assert curve["hit_rate"]["lru"] <= curve["hit_rate"]["oracle"] + 1e-9


def _capture(lru: float, oracle: float) -> dict:
    return {
        "name": "t.jsonl",
        "n_requests": 10,
        "n_distinct": 5,
        "curves": [{
            "capacity": 4, "capacity_fraction": 0.1,
            "hit_rate": {"lru": lru, "oracle": oracle},
        }],
    }


def test_run_checks_flags_oracle_violation():
    failures = run_checks({"t.jsonl": _capture(lru=0.9, oracle=0.5)})
    assert failures == ["t.jsonl@4: lru 0.9000 beat the oracle 0.5000 "
                        "(replay bug)"]


def test_run_checks_pass_when_oracle_dominates():
    assert run_checks({"t.jsonl": _capture(lru=0.5, oracle=0.5)}) == []
    assert run_checks({"t.jsonl": _capture(lru=0.3, oracle=0.6)}) == []


def _write_probe_trace(path: Path, parts) -> None:
    cache = ResultCache()
    obs.configure(trace_path=path)
    try:
        with obs.span("sweep"):
            for part in parts:
                cache.get_or_compute((part,), lambda: 1, kind="kind")
    finally:
        obs.shutdown()


def test_main_replays_every_capture(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_probe_trace(a, "abcabcabca")
    _write_probe_trace(b, "xyxyxy")
    out = tmp_path / "report.json"
    assert main(["--trace", str(a), "--trace", str(b), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-bench-cache/2"
    assert set(report["captures"]) == {"a.jsonl", "b.jsonl"}
    assert report["captures"]["a.jsonl"]["n_requests"] == 10
    assert report["checks"]["failures"] == []


def test_main_exits_2_naming_the_capture_on_a_replay_bug(tmp_path, capsys,
                                                         monkeypatch):
    path = tmp_path / "probes.jsonl"
    _write_probe_trace(path, "abcabcabca")
    monkeypatch.setattr(cache_oracle, "replay_lru",
                        lambda keys, capacity: {"hit_rate": 1.0})
    rc = main(["--trace", str(path), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FAIL: probes.jsonl@" in err and "(replay bug)" in err


def test_main_requires_a_trace(capsys):
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    assert "--trace" in capsys.readouterr().err


def test_load_captured_trace_reads_probe_keys_in_file_order(tmp_path):
    path = tmp_path / "trace.jsonl"
    cache = ResultCache()
    obs.configure(trace_path=path)
    try:
        with obs.span("sweep"):
            for part in ("b", "a", "b", "c"):
                cache.get_or_compute((part,), lambda: 1, kind="kind")
        obs.annotate("cache-snapshot", entries=3)
    finally:
        obs.shutdown()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": "repro-trace/1", "kind": "ev')   # torn tail
    records = list(map(json.loads, path.read_text().splitlines()[:-1]))
    probe_keys = [r["attrs"]["key"] for r in records
                  if r["name"] == "cache.probe"]
    assert {r["name"] for r in records} == {"sweep", "cache.probe",
                                            "cache-snapshot"}
    keys = load_captured_trace(path)
    assert keys == probe_keys and len(keys) == 4
    assert keys[0] == keys[2] and len(set(keys)) == 3
