"""Deterministic work partitioning for parallel sweeps.

Design-space sweeps fan slices of the configuration list across worker
processes. :func:`chunk_bounds` splits an index range into balanced chunks
so that

* every chunk's work is contiguous (cache-friendly when slicing arrays),
* the partition is a function of (n_items, n_chunks) only — independent of
  worker scheduling — so results are reproducible, and
* chunk sizes differ by at most one item.
"""

from __future__ import annotations

__all__ = ["chunk_bounds"]


def chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Return ``[(start, stop), ...]`` splitting ``range(n_items)`` into
    ``n_chunks`` contiguous, balanced pieces (sizes differ by ≤ 1).

    Chunks beyond ``n_items`` are dropped, so fewer than ``n_chunks`` pairs
    may be returned for tiny inputs.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, n_items) if n_items else 0
    bounds = []
    base, extra = divmod(n_items, n_chunks) if n_chunks else (0, 0)
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds
