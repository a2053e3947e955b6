"""Executor abstraction: run independent tasks serially or across processes.

The library's heavy loops — design-space sweeps (a few fixed-length slices
of the 4608 configurations), training nine models per task, running
repeated-holdout cross-validation — are embarrassingly parallel. All of
them funnel through :class:`Executor`, and callers hand the driver the
backend they want:

* ``SerialExecutor`` — plain loop; zero overhead, fully deterministic, the
  right default for tests and small inputs.
* ``ProcessExecutor`` — ``concurrent.futures.ProcessPoolExecutor``.
  Results are always returned in input order, so parallel and serial
  execution are bit-identical for deterministic task functions.

Task functions must be picklable (module-level functions or partials of
them), per the usual multiprocessing contract.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["Executor", "SerialExecutor", "ProcessExecutor"]

T = TypeVar("T")
R = TypeVar("R")


class Executor(ABC):
    """Maps a function over items, preserving input order."""

    @abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item and return results in input order."""

    def close(self) -> None:
        """Release any backing resources (no-op by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run tasks inline on the calling thread."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover
        return "SerialExecutor()"


class ProcessExecutor(Executor):
    """Run tasks on a process pool of ``max_workers`` (default: all CPUs).

    :meth:`map` dispatches ``ceil(n / (4 * workers))`` items per chunk,
    which keeps per-item IPC cost low while still load-balancing.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _pick_chunksize(self, n_items: int) -> int:
        return max(1, -(-n_items // (4 * self.max_workers)))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        if len(items) == 1:  # skip pool startup for trivial work
            return [fn(items[0])]
        pool = self._ensure_pool()
        chunksize = self._pick_chunksize(len(items))
        return list(pool.map(fn, items, chunksize=chunksize))

    def submit(self, fn: Callable[[T], R], item: T):
        """Dispatch one task and return its ``concurrent.futures.Future``.

        Unlike :meth:`map` this gives the caller per-task control (used by
        :class:`repro.parallel.resilient.ResilientExecutor` for timeouts and
        retries) at the cost of unchunked IPC.
        """
        return self._ensure_pool().submit(fn, item)

    def reset(self, kill: bool = False) -> None:
        """Discard the pool so the next use builds a fresh one.

        ``kill=True`` terminates worker processes first — the only way to
        reclaim a worker stuck in a hung task.
        """
        if self._pool is None:
            return
        if kill:
            for proc in list((getattr(self._pool, "_processes", None) or {}).values()):
                proc.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"ProcessExecutor(max_workers={self.max_workers})"
