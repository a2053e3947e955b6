"""Executor-level edge cases for checkpoint/resume and retry exhaustion.

The journal-level behaviours (torn final line, mid-file corruption) are
covered in test_resilient.py; these tests drive the same situations through
a full :class:`ResilientExecutor` resume — what a user actually reruns after
a crash — and pin down what a retry-exhausted abort carries.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepAborted
from repro.obs.metrics import default_registry, reset_default_registry
from repro.parallel import (
    CheckpointJournal,
    FaultInjector,
    ResilientExecutor,
)

ATTEMPTS = 3


class _LoggingSquare:
    """`x * x` that appends every execution to a log file.

    The class-level ``__qualname__`` is what task fingerprints hash, so
    instances with different log paths produce identical fingerprints —
    letting resume tests count real executions.
    """

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def __call__(self, x):
        with open(self.log_path, "a") as fh:
            fh.write(f"{x}\n")
        return x * x


class _LoggingCube(_LoggingSquare):
    """A different function → different task fingerprints for the same items."""

    def __call__(self, x):
        with open(self.log_path, "a") as fh:
            fh.write(f"{x}\n")
        return x * x * x


def _executions(path) -> list[int]:
    return [int(line) for line in path.read_text().split()] if path.exists() else []


class TestResumeThroughTornJournal:
    def test_resume_skips_intact_entries_and_recomputes_torn_one(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        log = tmp_path / "runs.log"
        items = list(range(8))

        with ResilientExecutor(journal=CheckpointJournal(journal_path)) as ex:
            expected = ex.map(_LoggingSquare(log), items)
        assert _executions(log) == items

        # Crash artifact: the final record's write was torn mid-line.
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        log2 = tmp_path / "runs2.log"
        with ResilientExecutor(
            journal=CheckpointJournal(journal_path, resume=True)
        ) as ex:
            resumed = ex.map(_LoggingSquare(log2), items)

        assert resumed == expected  # bit-identical to the uninterrupted run
        assert _executions(log2) == [7]  # only the torn task re-ran
        assert "restored:7" in ex.events

    def test_journal_healed_after_torn_resume(self, tmp_path):
        """A second resume after the healing run restores everything."""
        journal_path = tmp_path / "sweep.jsonl"
        items = list(range(5))
        with ResilientExecutor(journal=CheckpointJournal(journal_path)) as ex:
            expected = ex.map(_LoggingSquare(tmp_path / "a.log"), items)
        lines = journal_path.read_text().splitlines(keepends=True)
        journal_path.write_text("".join(lines[:-1]) + "{\"fp\": \"torn")
        with ResilientExecutor(
            journal=CheckpointJournal(journal_path, resume=True)
        ) as ex:
            ex.map(_LoggingSquare(tmp_path / "b.log"), items)

        log3 = tmp_path / "c.log"
        with ResilientExecutor(
            journal=CheckpointJournal(journal_path, resume=True)
        ) as ex:
            final = ex.map(_LoggingSquare(log3), items)
        assert final == expected
        assert _executions(log3) == []  # nothing left to recompute


class TestResumeWithChangedFingerprint:
    def test_different_function_restores_nothing(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        items = list(range(6))
        with ResilientExecutor(journal=CheckpointJournal(journal_path)) as ex:
            ex.map(_LoggingSquare(tmp_path / "a.log"), items)

        # Same items, different function → every task fingerprint changes;
        # stale square results must not leak into the cube sweep.
        log = tmp_path / "b.log"
        with ResilientExecutor(
            journal=CheckpointJournal(journal_path, resume=True)
        ) as ex:
            cubes = ex.map(_LoggingCube(log), items)
        assert cubes == [x**3 for x in items]
        assert _executions(log) == items  # everything recomputed
        assert not any(e.startswith("restored") for e in ex.events)

    def test_changed_items_restore_only_the_overlap(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        with ResilientExecutor(journal=CheckpointJournal(journal_path)) as ex:
            ex.map(_LoggingSquare(tmp_path / "a.log"), [10, 11, 12])

        # Positions 0-1 carry the same (index, item) pairs; position 2 does
        # not, so only it reruns.
        log = tmp_path / "b.log"
        with ResilientExecutor(
            journal=CheckpointJournal(journal_path, resume=True)
        ) as ex:
            results = ex.map(_LoggingSquare(log), [10, 11, 99])
        assert results == [100, 121, 9801]
        assert _executions(log) == [99]
        assert "restored:2" in ex.events


class TestRetryExhaustion:
    def test_abort_carries_error_chain_and_attempt_count(self, no_backoff):
        ex = ResilientExecutor(
            injector=FaultInjector(fail_indices=(2,)), max_attempts=ATTEMPTS)
        with pytest.raises(SweepAborted) as ei:
            ex.map(lambda x: x + 1, range(5))
        aborted = ei.value
        [failure] = aborted.failures
        assert failure.index == 2
        assert failure.attempts == ATTEMPTS  # budget fully spent
        assert failure.error_type == "InjectedFault"
        assert "task 2" in failure.message
        # The abort still returns every completed result.
        assert aborted.partial_results == [1, 2, None, 4, 5]
        # Each exhausted attempt before the last was logged as a retry.
        retries = [e for e in ex.events if e.startswith("retry:2:")]
        assert retries == ["retry:2:1", "retry:2:2"]

    def test_exhaustion_updates_executor_metrics(self, no_backoff):
        reset_default_registry()
        ex = ResilientExecutor(
            injector=FaultInjector(fail_indices=(0,)), max_attempts=ATTEMPTS)
        with pytest.raises(SweepAborted):
            ex.map(lambda x: x, range(3))
        reg = default_registry()
        assert reg.counter("executor.retries").value == 2
        assert reg.counter("executor.failures").value == 1
        assert reg.counter("executor.tasks.completed").value == 2
        reset_default_registry()

    def test_multiple_failures_sorted_by_index(self, no_backoff):
        ex = ResilientExecutor(
            injector=FaultInjector(fail_indices=(3, 1)), max_attempts=ATTEMPTS)
        with pytest.raises(SweepAborted) as ei:
            ex.map(lambda x: x, range(5))
        assert [f.index for f in ei.value.failures] == [1, 3]
        assert ei.value.checkpointed is False
