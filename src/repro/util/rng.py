"""Deterministic random-number-stream management.

Every stochastic component in the library (workload generators, dataset
generators, model initializers, samplers) draws from a named child stream of
a single root seed so that

* results are exactly reproducible given a seed,
* independent components have statistically independent streams, and
* adding a new consumer never perturbs existing ones (streams are keyed by
  name, not by draw order).

This mirrors the practice recommended for parallel scientific codes: derive
per-task generators from ``numpy.random.SeedSequence`` spawns rather than
sharing one generator across tasks.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

__all__ = ["child_rng", "pick_fault", "stream_seed"]

_MASK32 = 0xFFFFFFFF


def stream_seed(root_seed: int, *names: str | int) -> int:
    """Derive a deterministic 64-bit seed for a named stream.

    The derivation hashes the names with CRC32 (stable across Python runs,
    unlike ``hash``) and folds them into the root seed.
    """
    acc = root_seed & 0xFFFFFFFFFFFFFFFF
    for name in names:
        token = str(name).encode("utf-8")
        h = zlib.crc32(token) & _MASK32
        acc = (acc * 6364136223846793005 + h + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return acc


def child_rng(root_seed: int, *names: str | int) -> np.random.Generator:
    """Return an independent ``numpy`` generator for the named stream."""
    return np.random.default_rng(stream_seed(root_seed, *names))


def pick_fault(root_seed: int, stream: str, key: tuple[str | int, ...],
               index: int,
               plan: Iterable[tuple[str, float, Sequence[int]]]) -> str | None:
    """The fault one seeded chaos decision fires, or None.

    ``plan`` is an ordered list of ``(fault, probability, explicit indices)``.
    Fault *k* fires when ``index`` is one of its explicit indices, or when a
    uniform draw from ``child_rng(root_seed, stream, *key)`` falls below the
    summed probabilities of faults ``0..k``; the first fault that fires wins.
    The draw is made only once a probability band is reached, and it is the
    same draw for every band, so the bands partition ``[0, 1)``.
    """
    u = None
    band = 0.0
    for fault, p, indices in plan:
        if index in indices:
            return fault
        band += p
        if band > 0.0:
            if u is None:
                u = float(child_rng(root_seed, stream, *key).random())
            if u < band:
                return fault
    return None

