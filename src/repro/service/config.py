"""The settings of one ``repro serve`` service instance.

Kept apart from :mod:`repro.service.supervisor`, so reading them — the
CLI's ``serve`` flag defaults do, on every start — does not load the
supervisor and the worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.resilient import FaultInjector
from repro.service.compaction import CompactionPolicy
from repro.service.spool import SpoolConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` configures about one service instance."""

    root: str
    workers: int = 2
    max_depth: int = SpoolConfig.max_depth
    lease_ttl: float = SpoolConfig.lease_ttl
    heartbeat_timeout: float = 10.0
    seed: int = 0
    max_restarts: int = 5            # per worker slot, then it is abandoned
    drain_on_idle: bool = False
    #: With ``drain_on_idle``, the queue must stay empty this long before
    #: the drain fires. Protects the quickstart pattern — ``serve ... &``
    #: followed by ``submit`` — from the server exiting before the first
    #: job lands.
    idle_grace: float = 0.0
    max_runtime: float | None = None
    #: Chaos harness handed to the *initial* worker generation only.
    injector: FaultInjector | None = None
    #: Observability plane: workers write per-shard ``repro-trace/1`` files
    #: with one trace id per job (``serve --obs``). Off by default; job
    #: execution stays bit-identical either way.
    obs: bool = False
    #: Live health snapshot path (``serve --status-file``); None: no status
    #: writes. The file is replaced atomically every ``status_interval``.
    status_file: str | None = None
    status_interval: float = 2.0
    #: Auto-compaction: once the spool log outgrows either threshold, the
    #: serve loop folds it into a ``repro-spoolsnap/1`` snapshot (under the
    #: spool flock, so claims/submits never interleave) and GCs orphaned
    #: checkpoints/results. Thresholds sized so short-lived drills never
    #: trigger it; a long-lived daemon compacts roughly per-threshold.
    auto_compact: bool = True
    compact_max_log_bytes: int = CompactionPolicy.max_log_bytes
    compact_max_events: int = CompactionPolicy.max_events

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}")
        if self.idle_grace < 0:
            raise ValueError(f"idle_grace must be >= 0, got {self.idle_grace}")
        if self.status_interval <= 0:
            raise ValueError(
                f"status_interval must be > 0, got {self.status_interval}")
        if self.compact_max_log_bytes < 1 or self.compact_max_events < 1:
            raise ValueError(
                "compact_max_log_bytes and compact_max_events must be >= 1")
