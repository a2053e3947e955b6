"""Offline cache headroom benchmark: the LRU memory tier vs the Belady oracle.

Replays access traces — four seeded synthetic key streams built from
:class:`repro.loadgen.workloads.ReqGenEngine` by default, or captured
``repro-cachetrace/1`` files via ``--trace`` — through the result cache's
LRU memory tier (:class:`repro.cache.LRUCache`) and a clairvoyant
Belady/OPT oracle, and writes hit-rate-vs-capacity curves to
``benchmarks/results/BENCH_cache.json``.

The oracle (evict the resident key whose next use is farthest in the
future) is the provable upper bound on hit rate for any demand-fetch
cache of the same capacity, so the gap ``oracle - lru`` is the exact
headroom any other eviction policy could win on that workload.

Run::

    PYTHONPATH=src python benchmarks/cache_oracle.py [--out PATH]
        [--trace CAPTURE.jsonl ...] [--seed N]

Exit codes: 0 ok; 2 LRU beat the oracle (replay bug); 4 a hit rate moved
more than ``PIN_TOLERANCE`` away from its pinned value on a synthetic
workload.
"""

from __future__ import annotations

import argparse
import heapq
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cache import LRUCache, read_cache_trace  # noqa: E402
from repro.loadgen.workloads import (  # noqa: E402
    WORKLOAD_SHAPES,
    ReqGenEngine,
    SpecCatalog,
    WorkloadSpec,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Requests per synthetic key stream.
N_REQUESTS = 20000

#: ``WorkloadSpec`` fields per shape: a 60-key hot set in 600 (static), four
#: 150-key phases (phase_shift), two 120-key sets flipping every 2000
#: requests (oscillating), and a 50-key hot set between round-robin scans
#: of 950 cold keys (scan).
SHAPES: dict[str, dict] = {
    "static": {"n_keys": 600, "hot_fraction": 0.1, "hot_weight": 0.85},
    "phase_shift": {"n_keys": 600, "hot_weight": 0.85},
    "oscillating": {"n_keys": 240, "period": 2000},
    "scan": {"n_keys": 1000, "hot_fraction": 0.05, "hot_weight": 0.6},
}

#: Capacity sweep, as fractions of the trace's distinct-key count.
CAPACITY_FRACTIONS = (0.05, 0.1, 0.2, 0.4)

#: The fraction the pins are evaluated at.
REFERENCE_FRACTION = 0.1

#: A hit rate fails the pin check if it moves more than this (absolute)
#: away from its pin.
PIN_TOLERANCE = 0.01

#: Pinned hit rates at REFERENCE_FRACTION for seed 0 — exact values from a
#: replay of the deterministic synthetic traces (LRU and the oracle are
#: pure functions of the trace). Regenerate with --print-pins after an
#: intentional change to the traces or the replay.
PINNED: dict[str, dict[str, float]] = {
    "static": {"lru": 0.64190, "oracle": 0.84810},
    "phase_shift": {"lru": 0.31640, "oracle": 0.64240},
    "oscillating": {"lru": 0.19930, "oracle": 0.51750},
    "scan": {"lru": 0.49895, "oracle": 0.61880},
}

_MISS = object()


def synthetic_traces(seed: int = 0) -> dict[str, list[str]]:
    """The four shapes' key streams, name-keyed in ``WORKLOAD_SHAPES`` order."""
    return {
        name: [SpecCatalog.key(i) for i in ReqGenEngine(WorkloadSpec(
            workload=name, n_requests=N_REQUESTS, seed=seed,
            **SHAPES[name])).key_indices()]
        for name in WORKLOAD_SHAPES
    }


def replay_lru(keys: list[str], capacity: int) -> dict:
    """Run ``keys`` through one :class:`LRUCache`; return its counters."""
    lru = LRUCache(capacity)
    for key in keys:
        if lru.get(key, _MISS) is _MISS:
            lru.put(key, 1)
    total = lru.hits + lru.misses
    return {"hits": lru.hits, "misses": lru.misses,
            "evictions": lru.evictions,
            "hit_rate": lru.hits / total if total else 0.0}


def belady_hit_rate(keys: list[str], capacity: int) -> float:
    """Clairvoyant OPT replay: evict the key reused farthest in the future.

    The incoming key is itself an eviction candidate — if every resident
    is reused sooner than the missing key's next use, the miss bypasses
    the cache entirely. That is the true (bypass-allowed) Belady bound,
    which dominates the mandatory-insert discipline LRU follows.

    A lazy max-heap of (-next_use, key) stands in for a priority queue
    with decrease-key: every access pushes the key's new next-use, and
    eviction pops stale entries until the heap top agrees with the
    resident table — O(n log n) over the trace instead of
    O(n * capacity).
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    n = len(keys)
    inf = float("inf")
    next_use = [inf] * n
    last_seen: dict[str, int] = {}
    for i in range(n - 1, -1, -1):
        next_use[i] = last_seen.get(keys[i], inf)
        last_seen[keys[i]] = i

    resident: dict[str, float] = {}  # key -> its current next-use index
    heap: list[tuple[float, str]] = []
    hits = 0
    for i, key in enumerate(keys):
        if key in resident:
            hits += 1
        elif len(resident) >= capacity:
            while resident.get(heap[0][1]) != -heap[0][0]:
                heapq.heappop(heap)  # stale: key re-pushed or evicted since
            if -heap[0][0] <= next_use[i]:
                continue  # incoming key is the farthest-reused: bypass
            _, victim = heapq.heappop(heap)
            del resident[victim]
        resident[key] = next_use[i]
        heapq.heappush(heap, (-next_use[i], key))
    return hits / n if n else 0.0


def evaluate_trace(name: str, keys: list[str],
                   fractions=CAPACITY_FRACTIONS) -> dict:
    """Hit-rate-vs-capacity curves for one trace, LRU + oracle."""
    n_distinct = len(set(keys))
    curves = []
    for fraction in fractions:
        capacity = max(4, int(n_distinct * fraction))
        start = time.perf_counter()
        hit_rate = {"lru": replay_lru(keys, capacity)["hit_rate"],
                    "oracle": belady_hit_rate(keys, capacity)}
        curves.append({
            "capacity": capacity,
            "capacity_fraction": fraction,
            "hit_rate": hit_rate,
            "replay_seconds": time.perf_counter() - start,
        })
    return {
        "name": name,
        "n_requests": len(keys),
        "n_distinct": n_distinct,
        "curves": curves,
    }


def _reference_rates(entry: dict) -> dict[str, float]:
    for curve in entry["curves"]:
        if curve["capacity_fraction"] == REFERENCE_FRACTION:
            return curve["hit_rate"]
    return entry["curves"][0]["hit_rate"]


def _summary(rates: dict[str, float]) -> str:
    return (f"lru={rates['lru']:.4f}  oracle={rates['oracle']:.4f}  "
            f"headroom={rates['oracle'] - rates['lru']:.4f}")


def run_checks(workloads: dict[str, dict]) -> list[str]:
    """Oracle-dominance and pin checks; returns the failures."""
    failures: list[str] = []
    eps = 1e-9
    for name, entry in workloads.items():
        for curve in entry["curves"]:
            lru, oracle = curve["hit_rate"]["lru"], curve["hit_rate"]["oracle"]
            if lru > oracle + eps:
                failures.append(
                    f"{name}@{curve['capacity']}: lru {lru:.4f} beat the "
                    f"oracle {oracle:.4f} (replay bug)")

    for name, pins in PINNED.items():
        entry = workloads.get(name)
        if entry is None:
            continue
        rates = _reference_rates(entry)
        for label, pinned in pins.items():
            got = rates[label]
            if abs(got - pinned) > PIN_TOLERANCE:
                failures.append(
                    f"pin regression: {name}/{label} hit rate {got:.5f} "
                    f"is not within {PIN_TOLERANCE} of pinned {pinned:.5f}")
    return failures


def load_captured_trace(path: Path) -> list[str]:
    """Key sequence of a captured ``repro-cachetrace/1`` file, in order."""
    return [record["key"] for record in read_cache_trace(path)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(RESULTS_DIR / "BENCH_cache.json"),
                        metavar="PATH", help="where to write the JSON report")
    parser.add_argument("--trace", action="append", default=[],
                        metavar="CAPTURE.jsonl",
                        help="also replay a captured repro-cachetrace/1 file "
                             "(repeatable; pins never apply to captures)")
    parser.add_argument("--seed", type=int, default=0,
                        help="synthetic trace seed (pins assume 0)")
    parser.add_argument("--print-pins", action="store_true",
                        help="print a PINNED block for the current replay "
                             "and skip the pin check")
    args = parser.parse_args(argv)

    workloads: dict[str, dict] = {}
    for name, keys in synthetic_traces(args.seed).items():
        workloads[name] = entry = evaluate_trace(name, keys)
        print(f"[{name}] {entry['n_requests']} requests, "
              f"{entry['n_distinct']} distinct keys")
        print("      " + _summary(_reference_rates(entry)))

    captures: dict[str, dict] = {}
    for raw in args.trace:
        path = Path(raw)
        keys = load_captured_trace(path)
        if not keys:
            print(f"[capture {path.name}] empty trace, skipping")
            continue
        captures[path.name] = entry = evaluate_trace(path.name, keys)
        print(f"[capture {path.name}] {entry['n_requests']} requests, "
              f"{entry['n_distinct']} distinct keys")
        print("      " + _summary(_reference_rates(entry)))

    if args.print_pins:
        pins = {name: {label: round(rate, 5)
                       for label, rate in _reference_rates(entry).items()}
                for name, entry in workloads.items()}
        print("PINNED = " + json.dumps(pins, indent=4))
        failures: list[str] = []
        notes = ["pin check skipped (--print-pins)"]
    else:
        failures, notes = run_checks(workloads), []

    report = {
        "schema": "repro-bench-cache/1",
        "seed": args.seed,
        "capacity_fractions": list(CAPACITY_FRACTIONS),
        "reference_fraction": REFERENCE_FRACTION,
        "pin_tolerance": PIN_TOLERANCE,
        "pinned": PINNED,
        "workloads": workloads,
        "captures": captures,
        "checks": {"failures": failures, "notes": notes},
        "unix_time": time.time(),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if any("replay bug" in f for f in failures):
        return 2
    return 4 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
