"""Offline cache headroom benchmark: the LRU memory tier vs the Belady oracle.

Replays the ``cache.probe`` events of ``repro-trace/1`` files
(``--trace-file`` runs, ``serve --obs`` shard traces) through the result
cache's LRU memory tier (:class:`repro.cache.LRUCache`) and a clairvoyant
Belady/OPT oracle, and writes hit-rate-vs-capacity curves to
``benchmarks/results/BENCH_cache.json``.

The oracle (evict the resident key whose next use is farthest in the
future) is the provable upper bound on hit rate for any demand-fetch
cache of the same capacity, so the gap ``oracle - lru`` is the exact
headroom any other eviction policy could win on that trace.

Run::

    PYTHONPATH=src python benchmarks/cache_oracle.py --trace TRACE.jsonl
        [--trace TRACE.jsonl ...] [--out PATH]

Exit codes: 0 ok; 2 LRU beat the oracle on some capture (replay bug).
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

from repro.cache import LRUCache  # noqa: E402
from repro.obs.summarize import read_trace  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Capacity sweep, as fractions of the trace's distinct-key count.
CAPACITY_FRACTIONS = (0.05, 0.1, 0.2, 0.4)

#: The fraction the one-line summary of each capture reports.
REFERENCE_FRACTION = 0.1

_MISS = object()


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


def _capacity(n_distinct: int, fraction: float) -> int:
    return max(4, int(n_distinct * fraction))


def evaluate_trace(name: str, keys: list[str],
                   fractions=CAPACITY_FRACTIONS) -> dict:
    """Hit-rate-vs-capacity curves for one trace, LRU + oracle.

    Capacities are clamped to at least 4, so on a small trace several
    fractions share one capacity; each distinct capacity is one curve
    point, labelled with the first fraction that gives it.
    """
    n_distinct = len(set(keys))
    curves = []
    for fraction in fractions:
        capacity = _capacity(n_distinct, fraction)
        if any(c["capacity"] == capacity for c in curves):
            continue
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
    """The rates at the capacity ``REFERENCE_FRACTION`` gives."""
    capacity = _capacity(entry["n_distinct"], REFERENCE_FRACTION)
    for curve in entry["curves"]:
        if curve["capacity"] == capacity:
            return curve["hit_rate"]
    return entry["curves"][0]["hit_rate"]


def _summary(rates: dict[str, float]) -> str:
    return (f"lru={rates['lru']:.4f}  oracle={rates['oracle']:.4f}  "
            f"headroom={rates['oracle'] - rates['lru']:.4f}")


def run_checks(captures: dict[str, dict]) -> list[str]:
    """Oracle-dominance check over every capture; returns the failures."""
    failures: list[str] = []
    eps = 1e-9
    for name, entry in captures.items():
        for curve in entry["curves"]:
            lru, oracle = curve["hit_rate"]["lru"], curve["hit_rate"]["oracle"]
            if lru > oracle + eps:
                failures.append(
                    f"{name}@{curve['capacity']}: lru {lru:.4f} beat the "
                    f"oracle {oracle:.4f} (replay bug)")
    return failures


def load_captured_trace(path: Path) -> list[str]:
    """Probe keys of a ``repro-trace/1`` file's ``cache.probe`` events, in
    file order; spans, other events and a torn tail are skipped."""
    records, _ = read_trace(path)
    return [r["attrs"]["key"] for r in records
            if r["kind"] == "event" and r["name"] == "cache.probe"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(RESULTS_DIR / "BENCH_cache.json"),
                        metavar="PATH", help="where to write the JSON report")
    parser.add_argument("--trace", action="append", required=True,
                        metavar="TRACE.jsonl",
                        help="replay the cache.probe events of a "
                             "repro-trace/1 file (repeatable)")
    args = parser.parse_args(argv)

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

    failures = run_checks(captures)
    report = {
        "schema": "repro-bench-cache/2",
        "capacity_fractions": list(CAPACITY_FRACTIONS),
        "reference_fraction": REFERENCE_FRACTION,
        "captures": captures,
        "checks": {"failures": failures},
        "unix_time": time.time(),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
