"""Fully-associative LRU translation lookaside buffers.

Table 1 sizes TLBs by *reach* (e.g. "Data TLB size 512, 2048 KB"): the
number of entries is reach / 4 KB page. A fully-associative LRU TLB with
hundreds of entries needs O(1) hit handling, so the implementation uses an
ordered dict (move-to-end on touch, evict oldest on overflow) rather than
the small-list scheme of :class:`repro.simulator.cache.Cache`.

``Tlb.access_stream`` collapses repeats as the cache stream does. An access
to the same page as the access just before it touches the most recently
used entry, which is a hit and leaves the LRU order as it was. Only page
changes are simulated and the repeats are filled in as hits, so the hits,
the statistics and the final order of ``_map`` are exactly those of calling
:meth:`Tlb.access` on every address. A 4 KB page holds a thousand
instructions, so most of an instruction stream collapses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.simulator.workloads import PAGE

__all__ = ["Tlb", "TlbStats"]


@dataclass
class TlbStats:
    """Access counters."""

    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """A fully-associative LRU TLB.

    Parameters
    ----------
    reach_bytes:
        Mapped capacity; entries = reach / page size (at least 1).
    page_bytes:
        Page size (4 KB default, as in the paper's era).
    """

    def __init__(self, reach_bytes: int, page_bytes: int = PAGE) -> None:
        if reach_bytes <= 0 or page_bytes <= 0:
            raise ValueError("reach_bytes and page_bytes must be positive")
        self.entries = max(1, reach_bytes // page_bytes)
        self.page_bytes = page_bytes
        self._map: OrderedDict[int, None] = OrderedDict()
        self.stats = TlbStats()

    def reset(self) -> None:
        self._map.clear()
        self.stats = TlbStats()

    def access(self, addr: int) -> bool:
        """Translate one byte address; True on TLB hit."""
        page = addr // self.page_bytes
        self.stats.accesses += 1
        if page in self._map:
            self._map.move_to_end(page)
            return True
        self.stats.misses += 1
        if len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[page] = None
        return False

    def access_stream(self, addrs: np.ndarray) -> np.ndarray:
        """Translate a stream; returns boolean hit flags.

        Equivalent to calling :meth:`access` on each address in order, with
        back-to-back repeats of a page filled in as hits (module docstring).
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        n = addrs.shape[0]
        pages = addrs // self.page_bytes
        changed = np.flatnonzero(pages[1:] != pages[:-1]) + 1
        idx = np.concatenate(([0], changed)) if n else changed
        tlb = self._map
        touch = tlb.move_to_end
        evict = tlb.popitem
        entries = self.entries
        sim_hits: list[bool] = []
        hit = sim_hits.append
        for page in pages[idx].tolist():
            if page in tlb:
                touch(page)
                hit(True)
            else:
                if len(tlb) >= entries:
                    evict(last=False)
                tlb[page] = None
                hit(False)
        hits = np.ones(n, dtype=bool)
        hits[idx] = sim_hits
        self.stats.accesses += n
        self.stats.misses += len(sim_hits) - sum(sim_hits)
        return hits

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return f"Tlb(entries={self.entries}, page={self.page_bytes})"
