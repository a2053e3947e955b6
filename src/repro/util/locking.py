"""Advisory file locking for multi-process coordination.

The job spool's event log is appended to by every service process —
submitters, workers and the supervisor — and a torn JSONL line (two
writers interleaving one append) is permanent corruption. :class:`FileLock`
wraps POSIX ``flock`` on a sidecar file: the lock is *advisory* (every
writer must take it), exclusive, and — crucially for crash recovery —
released by the kernel the moment the holding process dies, so a
SIGKILLed worker can never wedge the spool.

On platforms without ``fcntl`` the lock degrades to a no-op and
:attr:`FileLock.enforced` is False; callers that require mutual exclusion
can check it, but all supported CI/service platforms are POSIX.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = ["FileLock"]


class FileLock:
    """Exclusive advisory ``flock`` on a sidecar file.

    Usage::

        with FileLock(spool / "spool.lock"):
            ...append a record...

    or non-blocking::

        lock = FileLock(path)
        if not lock.acquire(blocking=False):
            raise SomebodyElseOwnsThis(...)

    Locks are per open-file-description: a second ``FileLock`` on the same
    path conflicts even inside one process.
    """

    #: Whether flock is actually enforced on this platform.
    enforced: bool = fcntl is not None

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        self._fd: Optional[int] = None

    @property
    def locked(self) -> bool:
        return self._fd is not None

    def acquire(self, blocking: bool = True) -> bool:
        """Take the lock; returns False (never raises) when a non-blocking
        attempt finds it held elsewhere."""
        if self._fd is not None:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            self._fd = fd
            return True
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        return True

    def release(self) -> None:
        """Drop the lock (idempotent). The lock file itself is left behind:
        deleting it would race a concurrent acquirer that already opened it."""
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "FileLock":
        self.acquire(blocking=True)
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = "locked" if self.locked else "unlocked"
        return f"FileLock({str(self.path)!r}, {state})"
