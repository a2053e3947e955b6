"""On-disk layer of the result cache.

Entries live at ``<root>/<key[:2]>/<key>.pkl`` (fan-out subdirectories keep
any single directory small). Each file is a small header — magic, payload
SHA-256 checksum — followed by the pickled value, so a truncated or
bit-rotted file is *detected* and treated as a miss (and deleted) rather
than deserialized into garbage or a crash. Writes are
:func:`repro.util.durable.replace_file` atomic replaces, so readers never
observe a half-written entry and concurrent writers of the same key are
safe (last writer wins with identical content).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Iterator

from repro.util import durable

__all__ = ["DiskStore"]

_MAGIC = b"RPRC1\n"
_MISS = object()


class DiskStore:
    """Content-checksummed pickle files under a root directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: I/O failures (unreadable entry, failed write) — distinct from
        #: plain misses. A circuit breaker above this layer watches the
        #: delta around each probe to decide when the disk tier is sick.
        self.io_errors = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str, default: Any = None) -> Any:
        """Load ``key`` if present and intact; corrupt entries are deleted."""
        value = self._read(self._path(key))
        if value is _MISS:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def _read(self, path: Path) -> Any:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return _MISS
        except OSError:
            # Entry exists but cannot be read (I/O error, permission, bad
            # mount) — a disk-tier health problem, not a plain miss.
            self.io_errors += 1
            return _MISS
        header_len = len(_MAGIC) + 64
        if raw[: len(_MAGIC)] != _MAGIC or len(raw) < header_len:
            self._discard(path)
            return _MISS
        checksum = raw[len(_MAGIC):header_len]
        payload = raw[header_len:]
        if hashlib.sha256(payload).hexdigest().encode() != checksum:
            self._discard(path)
            return _MISS
        try:
            return pickle.loads(payload)
        except Exception:
            self._discard(path)
            return _MISS

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # noqa: S110  # pragma: no cover - already gone / read-only store
            pass

    def put(self, key: str, value: Any) -> bool:
        """Atomically persist ``value``; returns whether the entry landed.

        I/O failure degrades to not-cached (False) — callers for whom the
        write is load-bearing (the job spool's result store) check the
        return and turn False into a typed error; cache tiers ignore it.
        The write is a synced atomic replace (temp file, fsync, rename,
        directory fsync): the spool fsyncs a job's ``done`` event only after
        this returns, so the entry must survive any crash that event does.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).hexdigest().encode() + payload
        try:
            durable.replace_file(self._path(key), blob, sync=True)
        except OSError:
            self.io_errors += 1
            return False
        return True

    def _entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if sub.is_dir():
                yield from sorted(sub.glob("*.pkl"))

    def keys(self) -> Iterator[str]:
        """Every stored key (sorted directory walk; no payload reads)."""
        for path in self._entries():
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        """Total bytes currently stored (0 for an empty or absent root)."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        n = 0
        for path in list(self._entries()):
            self._discard(path)
            n += 1
        return n
