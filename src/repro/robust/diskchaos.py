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
primitive calls, the same faults fire. Each call's fault is picked by
:func:`repro.util.rng.pick_fault` (the core the task injector shares) from
the ``(seed, "diskchaos", op, call_index)`` stream, so adding faults to
one operation kind never perturbs another.
"""

from __future__ import annotations

import contextlib
import errno
import os
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.util import durable
from repro.util.rng import pick_fault

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

    def _decide(self, op: str, *plan: tuple[str, float, tuple[int, ...]]
                ) -> tuple[int, str | None]:
        """Count one ``op`` call and pick the fault it suffers, if any."""
        i = self.calls.get(op, 0)
        self.calls[op] = i + 1
        fault = pick_fault(self.seed, "diskchaos", (op, i), i, plan)
        if fault is not None:
            self.fired[fault] = self.fired.get(fault, 0) + 1
        return i, fault

    # -- per-operation fault decisions (called through the fault hook) -------

    def on_write(self, fd: int, data: Any) -> int:
        """Decide one ``os.write``: full write, short write, error, crash."""
        if len(data) <= 1:  # too short to tear: a short write is a full one
            short = ("short_write", 0.0, ())
        else:
            short = ("short_write", self.p_short_write, self.short_write_at)
        i, fault = self._decide(
            "write", ("torn_crash", 0.0, self.torn_crash_at),
            ("enospc", self.p_enospc, self.enospc_at),
            ("eio_write", self.p_eio_write, self.eio_write_at), short)
        if fault == "torn_crash":
            os.write(fd, bytes(data)[: max(1, len(data) // 2)])
            raise SimulatedCrash(f"torn write at write call {i}")
        if fault == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if fault == "eio_write":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        if fault == "short_write":
            return os.write(fd, bytes(data)[: max(1, len(data) // 2)])
        return os.write(fd, data)

    def on_fsync(self, fd: int) -> None:
        i, fault = self._decide(
            "fsync", ("crash_after_fsync", 0.0, self.crash_after_fsync_at),
            ("eio_fsync", self.p_eio_fsync, self.eio_fsync_at))
        if fault == "eio_fsync":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        os.fsync(fd)
        if fault == "crash_after_fsync":
            raise SimulatedCrash(f"crash after fsync call {i}")

    def on_replace(self, src: Any, dst: Any) -> None:
        _, fault = self._decide("replace", ("rename", self.p_rename, self.rename_at))
        if fault == "rename":
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
