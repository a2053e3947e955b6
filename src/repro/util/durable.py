"""Durable files: atomic replace, durable append, and the JSONL log reader.

Every file the service and the resume machinery must not lose or tear goes
through the three protocols here:

* :func:`replace_file` — write a uniquely named ``.<name>.*.tmp`` beside the
  target and rename it over; any failure removes the temp file and keeps
  the old content. ``sync=True`` fsyncs the file before the rename and the
  directory after it; ``sync=False`` (telemetry) writes and renames only.
* :func:`append_line` — ``O_APPEND``, truncate a torn tail back to the last
  newline (those bytes were never acknowledged), write until drained, fsync.
* :func:`read_lines` — classify a JSONL file line by line at the bytes
  layer; each caller applies its own policy to failed and torn lines.
  :func:`complete_lines` classifies only the newline-terminated lines of
  bytes already read, for the logs :func:`append_line` repairs.

Every write, fsync and rename on these paths goes through ``fs_*``: plain
:mod:`os` calls until :mod:`repro.robust.diskchaos` sets :data:`fault_hook`
(an object with ``on_write``, ``on_fsync`` and ``on_replace``). A
``sync=False`` write skips the hook; only its rename goes through it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, NamedTuple

__all__ = ["Lines", "append_line", "commit_temp", "complete_lines",
           "fault_hook", "fs_fsync", "fs_fsync_dir", "fs_replace", "fs_write",
           "read_lines", "replace_file", "replace_json", "write_temp"]

#: Installed disk-fault injector (``None``: every primitive is plain ``os``).
fault_hook: Any = None


def fs_write(fd: int, data: Any) -> int:
    if fault_hook is None:
        return os.write(fd, data)
    return fault_hook.on_write(fd, data)


def fs_fsync(fd: int) -> None:
    if fault_hook is None:
        os.fsync(fd)
    else:
        fault_hook.on_fsync(fd)


def fs_replace(src: Any, dst: Any) -> None:
    if fault_hook is None:
        os.replace(src, dst)
    else:
        fault_hook.on_replace(src, dst)


def fs_fsync_dir(path: Any) -> None:
    """fsync a directory so a rename inside it is durable.

    Without a hook, a directory that cannot be fsynced (odd filesystems,
    sandboxes) is tolerated: the rename itself already happened. A hook's
    EIO is raised, because the protocols must treat it as a failure.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        fs_fsync(fd)
    except OSError:
        if fault_hook is not None:
            raise
    finally:
        os.close(fd)


def _drain(fd: int, data: bytes, write: Any) -> None:
    # A short write (ENOSPC mid-record, a signal) is resumed, never dropped.
    view = memoryview(data)
    while view:
        view = view[write(fd, view):]


def _make_parent(path: Path) -> bool:
    """Create ``path``'s directory when missing; True when it was created."""
    if path.parent.is_dir():
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    return True


def _discard(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # noqa: S110 - best-effort temp cleanup before re-raise
        pass


def write_temp(path: str | os.PathLike[str], data: bytes, *,
               sync: bool) -> Path:
    """First step of :func:`replace_file`: ``data`` in a temp beside ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        try:
            _drain(fd, data, fs_write if sync else os.write)
            if sync:
                fs_fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        _discard(tmp)
        raise
    return tmp


def commit_temp(tmp: Path, path: str | os.PathLike[str], *,
                sync: bool) -> None:
    """Second step of :func:`replace_file`: rename ``tmp`` over ``path``."""
    try:
        fs_replace(tmp, path)
    except BaseException:
        _discard(tmp)
        raise
    if sync:
        fs_fsync_dir(Path(path).parent)


def replace_file(path: str | os.PathLike[str], data: bytes, *,
                 sync: bool) -> None:
    """Atomically replace ``path`` with ``data``; raises :class:`OSError`.

    Missing parent directories are created. With ``sync``, a newly created
    parent's own entry is fsynced too, so the file is reachable after a
    power cut.
    """
    path = Path(path)
    created = _make_parent(path)
    commit_temp(write_temp(path, data, sync=sync), path, sync=sync)
    if sync and created:
        fs_fsync_dir(path.parent.parent)


def replace_json(path: str | os.PathLike[str], doc: Any) -> None:
    """Atomically replace ``path`` with ``doc`` as indented, key-sorted JSON.

    For reports and telemetry (``sync=False``); values JSON cannot encode
    are written as their ``str``.
    """
    replace_file(path, (json.dumps(doc, indent=2, sort_keys=True, default=str)
                        + "\n").encode(), sync=False)


def _repair_tail(fd: int) -> bool:
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return False
    pos, cut, chunk = size - 1, 0, 4096
    while pos > 0:
        start = max(0, pos - chunk)
        nl = os.pread(fd, pos - start, start).rfind(b"\n")
        if nl >= 0:
            cut = start + nl + 1
            break
        pos = start
    os.ftruncate(fd, cut)
    return True


def append_line(path: str | os.PathLike[str], data: bytes) -> bool:
    """Durably append one newline-terminated record; True if it repaired.

    Creates the file and its directory when missing. Raises
    :class:`OSError` when the write or fsync fails: the record did not
    land, and any prefix left is repaired by the next append. Callers
    serialize appends.
    """
    path = Path(path)
    _make_parent(path)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        repaired = _repair_tail(fd)
        _drain(fd, data, fs_write)
        fs_fsync(fd)
    finally:
        os.close(fd)
    return repaired


class Lines(NamedTuple):
    """A JSONL file classified line by line (0-based line indices)."""

    records: list[tuple[int, dict[str, Any]]]
    bad: list[int]  # interior lines that are not a UTF-8 JSON object
    torn: bool      # the last line is not: a crash mid-append
    n_lines: int


def read_lines(path: str | os.PathLike[str]) -> Lines:
    """Parse ``path`` as JSONL, skipping blank lines; only I/O errors raise."""
    return _parse_lines(Path(path).read_bytes())


def complete_lines(data: bytes, line0: int = 0) -> tuple[Lines, int]:
    """Classify the newline-terminated lines of ``data``: ``(lines, n_used)``.

    For logs written by :func:`append_line`, whose next append truncates an
    unterminated final fragment: a reader that counted it would go
    backwards, so a record counts only once its newline has landed.
    ``data`` starts on a line boundary whose index is ``line0``. A final
    complete line that fails is ``torn`` when nothing follows it (and
    ``n_used``, the bytes through the last line read, stops before it),
    ``bad`` when a fragment does.
    """
    cut = data.rfind(b"\n") + 1
    lines = _parse_lines(data[:cut], line0)
    if lines.torn and cut < len(data):
        lines = lines._replace(bad=[*lines.bad, line0 + lines.n_lines - 1],
                               torn=False)
    elif lines.torn:
        cut = data.rfind(b"\n", 0, cut - 1) + 1
    return lines, cut


def _parse_lines(data: bytes, line0: int = 0) -> Lines:
    """:func:`read_lines` over bytes whose first line has index ``line0``."""
    lines = data.splitlines()
    records: list[tuple[int, dict[str, Any]]] = []
    bad: list[int] = []
    torn = False
    for i, raw in enumerate(lines):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError
            record = None
        if isinstance(record, dict):
            records.append((line0 + i, record))
        elif i == len(lines) - 1:
            torn = True
        else:
            bad.append(line0 + i)
    return Lines(records, bad, torn, len(lines))
