"""Parallel execution substrate (serial / process-pool map, partitioning,
fault-tolerant wrapper with retries, timeouts, and checkpoint/resume)."""

from repro.parallel.executor import Executor, ProcessExecutor, SerialExecutor
from repro.parallel.partition import chunk_bounds
from repro.parallel.resilient import (
    CheckpointJournal,
    FaultInjector,
    ResilientExecutor,
    task_fingerprint,
)

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "chunk_bounds",
    "CheckpointJournal",
    "FaultInjector",
    "ResilientExecutor",
    "task_fingerprint",
]
