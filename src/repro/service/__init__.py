"""Fault-tolerant sweep/prediction job service.

The service turns the library's one-shot experiment drivers into a
long-running daemon that *degrades instead of dying*:

* :mod:`repro.service.jobs` — deterministic job specs whose content
  fingerprint is the idempotency key for queue, results, and checkpoints.
* :mod:`repro.service.spool` — the durable on-disk queue: an append-only,
  flock-guarded JSONL event log with lease-based ownership (crashed
  workers' jobs re-dispatch on lease expiry) and bounded-depth admission
  control (:class:`~repro.errors.ServiceOverloadError` instead of unbounded
  queueing). Reads fold snapshot + tail; appends degrade typed (write
  breaker -> read-only mode) when the disk misbehaves.
* :mod:`repro.service.compaction` — crash-consistent log compaction: the
  history folds into an atomically swapped ``repro-spoolsnap/1`` snapshot
  with a generation-counted marker tail, orphaned checkpoints/results are
  GC'd, and :func:`~repro.service.compaction.verify_spool` is the fsck
  (``repro spool verify/compact``).
* :mod:`repro.service.worker` — the shard loop: checkpoint-journaled
  execution (bit-identical resume), per-job deadlines, heartbeats, and
  circuit breakers around model fitting and the shared disk cache.
* :mod:`repro.service.supervisor` — process supervision: crash detection,
  hung-worker SIGKILL, capped seeded restart backoff, auto-compaction
  past a size/event threshold, graceful drain.
* :mod:`repro.service.client` — filesystem-only submit/wait/inspect with
  typed failures whose exit codes survive the process boundary.

Wired to the CLI as ``repro serve``, ``repro submit``, ``repro jobs``,
and ``repro spool compact|verify``; :class:`ServiceConfig` (``repro
serve``'s settings) lives in :mod:`repro.service.config`.
"""

import importlib

# Submodule -> the names it exports here. They load on first use, so a
# caller that only needs a spec or a config (the CLI's flag defaults) does
# not pay for the supervisor and the worker.
_EXPORTS = {
    "client": ("JobFailed", "format_jobs", "list_jobs", "poll_jobs",
               "submit_job", "wait_for"),
    "compaction": ("CompactionPolicy", "CompactionStats", "compact",
                   "maybe_compact", "should_compact", "verify_spool"),
    "config": ("ServiceConfig",),
    "jobs": ("JOB_KINDS", "JOB_STATES", "JobSpec", "JobView", "job_id"),
    "spool": ("SNAPSHOT_SCHEMA", "SPOOL_SCHEMA", "JobSpool", "SpoolConfig",
              "read_snapshot"),
    "supervisor": ("WorkerSupervisor",),
    "worker": ("Worker", "WorkerConfig", "drain_queue", "worker_main"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
