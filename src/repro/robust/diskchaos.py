"""Seeded disk-fault injection for the durable-file primitives.

The spool log, the disk cache tier, the checkpoint journal, and the
compaction swap all promise crash consistency — promises that are only as
good as their behaviour when the filesystem misbehaves. They all write
through :mod:`repro.util.durable`, whose ``fs_write``, ``fs_fsync``,
``fs_replace`` and ``fs_fsync_dir`` call :mod:`os` directly until
:func:`install` sets a :class:`DiskFaultInjector` as its fault hook, at
which point every call may be made to fail the way real disks fail:

* **ENOSPC / EIO on write** — the classic full-disk and dying-disk errors;
  callers must surface them typed, not wedge.
* **Short writes** — ``os.write`` is allowed to persist a prefix; callers
  that do not resume the remainder corrupt their own log.
* **Torn write then crash** — a prefix reaches the disk and the process
  dies (:class:`SimulatedCrash`): exactly the state a power cut leaves, and
  what every torn-tail recovery path must digest.
* **EIO on fsync** — the "lying fsync" case: the data may or may not be
  durable, and the caller must treat the operation as failed.
* **Rename failure / crash after fsync** — faults for the atomic-swap
  protocol used by snapshots and the checksummed cache store.

Faults come in two flavours per operation: *probabilistic* (a seeded rate,
for soak-style chaos drills) and *deterministic* (explicit 0-based call
indices, for pinpoint tests like "fail the 3rd fsync"). Both are driven by
a named counter per operation kind, so a test can assert exactly which call
fired. :class:`SimulatedCrash` derives from ``BaseException`` so it sails
through the broad ``except Exception`` recovery paths the way SIGKILL
would — a simulated crash must never be "handled".

Determinism contract: with the same seed and the same sequence of
primitive calls, the same faults fire. The injector hashes ``(seed, op, call_index)``
through the repo's named-stream derivation, so adding faults to one
operation kind never perturbs another.
"""

from __future__ import annotations

import contextlib
import errno
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util import durable
from repro.util.rng import child_rng

__all__ = [
    "DiskFaultInjector",
    "SimulatedCrash",
    "active",
    "injected",
    "install",
    "uninstall",
]


class SimulatedCrash(BaseException):
    """The process "died" at this exact point (power cut, SIGKILL).

    A ``BaseException`` on purpose: crash points must escape every
    ``except Exception`` recovery path, exactly like a real kill would.
    Tests catch it explicitly, then reopen the on-disk state and assert
    recovery.
    """


@dataclass
class DiskFaultInjector:
    """Seeded fault plan for the durable-file primitives.

    Probabilistic rates (``p_*``) draw one uniform per call from a stream
    keyed by ``(seed, op, call_index)``; deterministic ``*_at`` tuples name
    exact 0-based call indices per operation kind. ``calls`` counts every
    primitive call by op; ``fired`` counts injected faults by fault name — both
    are assertable after a drill.
    """

    seed: int = 0
    # probabilistic rates, one uniform draw per call
    p_enospc: float = 0.0        # os.write -> ENOSPC
    p_eio_write: float = 0.0     # os.write -> EIO
    p_short_write: float = 0.0   # os.write persists only a prefix
    p_eio_fsync: float = 0.0     # fsync -> EIO (the lying-fsync case)
    p_rename: float = 0.0        # os.replace -> EIO
    # deterministic 0-based call indices per operation kind
    enospc_at: tuple[int, ...] = ()
    eio_write_at: tuple[int, ...] = ()
    short_write_at: tuple[int, ...] = ()
    torn_crash_at: tuple[int, ...] = ()    # write a prefix, then crash
    eio_fsync_at: tuple[int, ...] = ()
    crash_after_fsync_at: tuple[int, ...] = ()  # fsync lands, then crash
    rename_at: tuple[int, ...] = ()
    calls: dict[str, int] = field(default_factory=dict)
    fired: dict[str, int] = field(default_factory=dict)

    def _next_index(self, op: str) -> int:
        i = self.calls.get(op, 0)
        self.calls[op] = i + 1
        return i

    def _roll(self, op: str, index: int) -> float:
        return float(child_rng(self.seed, "diskchaos", op, index).random())

    def _fire(self, fault: str) -> None:
        self.fired[fault] = self.fired.get(fault, 0) + 1

    # -- per-operation fault decisions (called through the fault hook) -------

    def on_write(self, fd: int, data: Any) -> int:
        """Decide one ``os.write``: full write, short write, error, crash."""
        i = self._next_index("write")
        u = self._roll("write", i)
        if i in self.torn_crash_at:
            self._fire("torn_crash")
            os.write(fd, bytes(data)[: max(1, len(data) // 2)])
            raise SimulatedCrash(f"torn write at write call {i}")
        if i in self.enospc_at or u < self.p_enospc:
            self._fire("enospc")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if i in self.eio_write_at or u < self.p_enospc + self.p_eio_write:
            self._fire("eio_write")
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        if (i in self.short_write_at
                or u < self.p_enospc + self.p_eio_write + self.p_short_write) \
                and len(data) > 1:
            self._fire("short_write")
            return os.write(fd, bytes(data)[: max(1, len(data) // 2)])
        return os.write(fd, data)

    def on_fsync(self, fd: int) -> None:
        i = self._next_index("fsync")
        u = self._roll("fsync", i)
        if i in self.crash_after_fsync_at:
            self._fire("crash_after_fsync")
            os.fsync(fd)
            raise SimulatedCrash(f"crash after fsync call {i}")
        if i in self.eio_fsync_at or u < self.p_eio_fsync:
            self._fire("eio_fsync")
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        os.fsync(fd)

    def on_replace(self, src: Any, dst: Any) -> None:
        i = self._next_index("replace")
        u = self._roll("replace", i)
        if i in self.rename_at or u < self.p_rename:
            self._fire("rename")
            raise OSError(errno.EIO, f"injected rename failure: {src} -> {dst}")
        os.replace(src, dst)


def install(injector: DiskFaultInjector) -> None:
    """Route every durable-file primitive through ``injector``."""
    durable.fault_hook = injector


def uninstall() -> None:
    durable.fault_hook = None


def active() -> DiskFaultInjector | None:
    """The currently installed injector (None: plain ``os`` calls)."""
    return durable.fault_hook


@contextlib.contextmanager
def injected(injector: DiskFaultInjector) -> Iterator[DiskFaultInjector]:
    """Scope an injector to a ``with`` block (always uninstalls)."""
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
