"""Detailed set-associative LRU cache simulation.

This is the reference model the analytic fast path is validated against:
a true set-associative cache with per-set LRU replacement, simulated access
by access. Per-set state is a small most-recent-first list of tags (max 8
ways in the Table-1 space), which keeps the hot path allocation-free.

``Cache.access_stream`` collapses repeats. An access to the same block as
the access just before it finds that block at the front of its set's list
(the previous access put it there), so under LRU it is a hit that changes
no state. The stream kernel therefore simulates only the accesses whose
block differs from the previous one and fills the repeats in as hits. The
hits, the statistics and the final per-set order are exactly those of
calling :meth:`Cache.access` on every address. Instruction fetch, where
consecutive PCs share a line, is where this pays: a 32-byte-line PC stream
has about one block change in four instructions.

:func:`miss_latency` threads a stream's L1 misses through L2 → L3,
presenting each level only the misses of the previous one (write-allocate,
inclusive behaviour is not modeled — neither does SimpleScalar's default
config for timing purposes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cache", "CacheStats", "miss_latency"]


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative LRU cache.

    Parameters
    ----------
    size_bytes, line_bytes, assoc:
        Geometry; must tile into whole sets.
    """

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int) -> None:
        if size_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines * line_bytes != size_bytes:
            raise ValueError(f"size {size_bytes} not a multiple of line {line_bytes}")
        if n_lines % assoc != 0:
            raise ValueError(f"{n_lines} lines do not tile into {assoc}-way sets")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._sets = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit. Updates LRU."""
        block = addr // self.line_bytes
        s = self._sets[block % self.n_sets]
        self.stats.accesses += 1
        try:
            s.remove(block)
            hit = True
        except ValueError:
            hit = False
            self.stats.misses += 1
            if len(s) >= self.assoc:
                s.pop()
        s.insert(0, block)
        return hit

    def access_stream(self, addrs: np.ndarray) -> np.ndarray:
        """Access a stream of addresses; returns a boolean hit array.

        Equivalent to calling :meth:`access` on each address in order, with
        back-to-back repeats of a block filled in as hits (module docstring).
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        n = addrs.shape[0]
        blocks = (addrs // self.line_bytes).astype(np.int64)
        changed = np.flatnonzero(blocks[1:] != blocks[:-1]) + 1
        idx = np.concatenate(([0], changed)) if n else changed
        sets = self._sets
        n_sets = self.n_sets
        assoc = self.assoc
        sim_hits: list[bool] = []
        hit = sim_hits.append
        for b in blocks[idx].tolist():
            s = sets[b % n_sets]
            if b in s:
                if s[0] != b:
                    s.remove(b)
                    s.insert(0, b)
                hit(True)
            else:
                if len(s) >= assoc:
                    s.pop()
                s.insert(0, b)
                hit(False)
        hits = np.ones(n, dtype=bool)
        hits[idx] = sim_hits
        self.stats.accesses += n
        self.stats.misses += len(sim_hits) - sum(sim_hits)
        return hits

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return (
            f"Cache(size={self.size_bytes}, line={self.line_bytes}, "
            f"assoc={self.assoc}, sets={self.n_sets})"
        )


def miss_latency(
    addrs: np.ndarray,
    l1_miss: np.ndarray,
    l2: Cache,
    l3: Cache | None,
    l2_latency: float,
    l3_latency: float,
    memory_latency: float,
) -> np.ndarray:
    """Per-access latency of a stream whose L1 misses are at ``l1_miss``.

    The misses walk ``l2`` and then ``l3`` (or memory), in stream order; L1
    hits cost 0. The caller runs the L1 itself, so it can reuse one L1
    outcome across configs that share it.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    lat = np.zeros(addrs.shape[0], dtype=np.float64)
    if not l1_miss.size:
        return lat
    l2_hits = l2.access_stream(addrs[l1_miss])
    lat[l1_miss[l2_hits]] = l2_latency
    miss2 = ~l2_hits
    if not miss2.any():
        return lat
    idx2 = l1_miss[miss2]
    if l3 is None:
        lat[idx2] = memory_latency
        return lat
    l3_hits = l3.access_stream(addrs[idx2])
    lat[idx2[l3_hits]] = l3_latency
    lat[idx2[~l3_hits]] = memory_latency
    return lat
