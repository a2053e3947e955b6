"""Ship a large read-only payload to process workers once, not per task.

A design-space sweep fans slices of one packed design space across a
process pool, and holdout estimation fans whole estimates over one dataset;
the naive encoding serializes that space (or dataset) into every task tuple,
pickling data that never changes once per task. This module ships such a
payload exactly once:

* the driver pickles the payload, copies the bytes into a POSIX
  shared-memory block (:mod:`multiprocessing.shared_memory`), and hands tasks
  a tiny picklable :class:`PayloadHandle` (name + size + content digest);
* each worker *attaches* to the block by name — zero-copy at the OS level —
  deserializes it once, and memoizes the result per process, so every
  task in one worker shares a single deserialization;
* if shared memory is unavailable (platform, permissions, exhausted
  ``/dev/shm``) the handle degrades to carrying the pickled bytes inline —
  strictly the old behaviour, never a failure.

Shared-memory block names are derived from the payload's content digest, so
the handles — and therefore any task fingerprints computed over them by
:class:`repro.parallel.resilient.ResilientExecutor` — are stable across runs:
a checkpointed sweep resumed in a new process recreates byte-identical task
identities. Content digests are verified on attach, so a stale or foreign
block with a colliding name is detected and rebuilt rather than trusted.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PayloadHandle", "SharedPayload", "attach_payload"]

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None


@dataclass(frozen=True)
class PayloadHandle:
    """Picklable reference to a shipped payload.

    Either names a shared-memory block (``name`` set) or carries the pickled
    payload inline (``inline`` set) when shared memory is unavailable.
    """

    digest: str
    size: int
    name: str | None = None
    inline: bytes | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.name is None) == (self.inline is None):
            raise ValueError("exactly one of name/inline must be set")


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class SharedPayload:
    """Driver-side lifetime manager for one shipped payload.

    Use as a context manager: the shared-memory block exists from ``__enter__``
    (or construction) until :meth:`close`, which unlinks it. Workers that
    attached keep their mappings; new attaches after close fail, which is
    correct — the driver outlives every ``map`` call it issues.
    """

    def __init__(self, obj: Any) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        digest = _digest(payload)
        self._segment = None
        if _shm is not None:
            self._segment = self._create_segment(payload, digest)
        if self._segment is not None:
            self.handle = PayloadHandle(digest=digest, size=len(payload),
                                        name=self._segment.name)
        else:
            self.handle = PayloadHandle(digest=digest, size=len(payload),
                                        inline=payload)

    @staticmethod
    def _create_segment(payload: bytes, digest: str):
        """Create (or adopt) the content-named block; None on any failure."""
        name = f"repro_{digest[:24]}"
        try:
            try:
                seg = _shm.SharedMemory(name=name, create=True, size=len(payload))
            except FileExistsError:
                # A previous run crashed without unlinking, or a concurrent
                # driver shipped the same content. Verify before trusting.
                seg = _shm.SharedMemory(name=name)
                if (seg.size >= len(payload)
                        and _digest(bytes(seg.buf[:len(payload)])) == digest):
                    return seg
                seg.close()
                try:
                    _shm.SharedMemory(name=name).unlink()
                except OSError:  # noqa: S110 - stale-block unlink is best-effort
                    pass
                seg = _shm.SharedMemory(name=name, create=True, size=len(payload))
            seg.buf[:len(payload)] = payload
            return seg
        except OSError:
            return None

    def __enter__(self) -> "SharedPayload":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Unlink the shared-memory block (no-op for inline handles)."""
        if self._segment is not None:
            try:
                self._segment.close()
                self._segment.unlink()
            except OSError:  # noqa: S110  # pragma: no cover - double close / foreign unlink
                pass
            self._segment = None


def _attach_untracked(name: str):
    """Attach to an existing block without resource-tracker registration.

    The driver owns the block's lifetime (it unlinks on close); attach-only
    registration would make every worker's resource tracker try to unlink it
    again at exit (CPython gh-82300). Python 3.13 grew ``track=False`` for
    exactly this; earlier versions need the unregister dance.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: suppress registration during attach.
        # (Sending unregister messages instead would race: with a forked
        # tracker every worker shares one registry, so N workers' unregisters
        # for one name crash the tracker loop with KeyErrors.)
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


#: Per-process memo of attached payloads, keyed by content digest, bounded
#: so a long-lived driver or worker cannot accumulate stale design spaces.
_ATTACHED: dict[str, Any] = {}
_ATTACHED_MAX = 8


def attach_payload(handle: PayloadHandle) -> Any:
    """Deserialize the payload a handle refers to (memoized per process)."""
    cached = _ATTACHED.get(handle.digest)
    if cached is not None:
        return cached
    if handle.inline is not None:
        if _digest(handle.inline) != handle.digest:
            raise ValueError("inline payload failed its content digest check")
        obj = pickle.loads(handle.inline)
    else:
        if _shm is None:  # pragma: no cover - guarded by handle construction
            raise RuntimeError("shared memory unavailable for handle attach")
        seg = _attach_untracked(handle.name)
        try:
            view = seg.buf[:handle.size]
            try:
                # Digest and deserialize straight from the mapping: the only
                # copies made are the deserialized objects themselves.
                if hashlib.sha256(view).hexdigest() != handle.digest:
                    raise ValueError(
                        f"shared payload {handle.name} failed its content "
                        "digest check (stale or corrupted block)"
                    )
                obj = pickle.loads(view)
            finally:
                view.release()
        finally:
            seg.close()
    while len(_ATTACHED) >= _ATTACHED_MAX:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[handle.digest] = obj
    return obj
