"""Tests for the fault-tolerant execution layer.

Covers every resilience mechanism: retry with deterministic backoff,
per-task timeouts, checkpoint/resume (bit-identical to uninterrupted serial
runs), worker-crash recovery (pool rebuild then serial downgrade), and the
seeded failure-injection harness itself.
"""

import errno
import json
import os
import pickle
import time

import numpy as np
import pytest

from repro.errors import InjectedFault, SweepAborted, TaskTimeout
from repro.parallel import (
    CheckpointJournal,
    FaultInjector,
    ProcessExecutor,
    ResilientExecutor,
    SerialExecutor,
    task_fingerprint,
)
from repro.parallel import resilient
from repro.parallel.resilient import backoff_delay


def _double(x):
    return x * 2


def _third(x):
    # Exercises float results end-to-end (journal round-trip included).
    return x / 3.0


def _sleep_on_two(x):
    if x == 2:
        time.sleep(30)
    return x * 2


class _LoggingThird:
    """`x / 3` that appends every execution to a log file.

    The class-level ``__qualname__`` is what :func:`task_fingerprint` hashes,
    so instances with different log paths still produce identical task
    fingerprints — letting resume tests count real executions.
    """

    def __init__(self, log_path):
        self.log_path = str(log_path)

    def __call__(self, x):
        with open(self.log_path, "a") as fh:
            fh.write(f"{x}\n")
        return x / 3.0


def _read_log(path):
    return [int(line) for line in path.read_text().split()] if path.exists() else []


class TestRetryPolicy:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ResilientExecutor(max_attempts=0)

    def test_delay_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(resilient, "BACKOFF_BASE", 0.1)
        d1 = backoff_delay(1, seed=42)
        assert d1 == backoff_delay(1, seed=42)  # pure in (attempt, seed)
        assert 0.05 <= d1 <= 0.15
        assert backoff_delay(3, seed=42) != backoff_delay(3, seed=43)

    def test_delay_grows_and_caps(self, monkeypatch):
        for name, value in (("BACKOFF_BASE", 1.0), ("BACKOFF_FACTOR", 10.0),
                            ("BACKOFF_MAX", 5.0), ("JITTER", 0.0)):
            monkeypatch.setattr(resilient, name, value)
        assert backoff_delay(1, 0) == 1.0
        assert backoff_delay(2, 0) == 5.0  # capped


class TestFingerprint:
    def test_stable_and_distinct(self):
        a = task_fingerprint(_double, 0, (1, 2.5, "x"))
        assert a == task_fingerprint(_double, 0, (1, 2.5, "x"))
        assert a != task_fingerprint(_double, 1, (1, 2.5, "x"))
        assert a != task_fingerprint(_double, 0, (1, 2.5, "y"))
        assert a != task_fingerprint(_third, 0, (1, 2.5, "x"))


class TestSerialResilience:
    def test_plain_map_matches_serial(self):
        with ResilientExecutor() as ex:
            assert ex.map(_double, range(10)) == [2 * i for i in range(10)]

    def test_transient_fault_is_retried(self, no_backoff):
        ex = ResilientExecutor(
            injector=FaultInjector(fail_once_indices=(2, 4)), max_attempts=3)
        assert ex.map(_double, range(6)) == [2 * i for i in range(6)]
        assert "retry:2:1" in ex.events and "retry:4:1" in ex.events

    def test_permanent_fault_aborts_with_partials(self, no_backoff):
        ex = ResilientExecutor(
            injector=FaultInjector(fail_indices=(1,)), max_attempts=3)
        with pytest.raises(SweepAborted) as ei:
            ex.map(_double, range(4))
        aborted = ei.value
        assert aborted.partial_results == [0, None, 4, 6]
        assert aborted.n_completed == 3
        [failure] = aborted.failures
        assert failure.index == 1 and failure.attempts == 3
        assert failure.kind == "exception"
        assert failure.error_type == "InjectedFault"
        assert "task 1" in str(aborted)

    def test_backoff_sleeps_between_attempts(self, monkeypatch):
        monkeypatch.setattr(resilient, "BACKOFF_BASE", 0.2)
        monkeypatch.setattr(resilient, "JITTER", 0.0)
        slept = []
        ex = ResilientExecutor(
            injector=FaultInjector(fail_once_indices=(0,)), max_attempts=2,
            sleep=slept.append)
        ex.map(_double, [7])
        assert len(slept) == 1 and 0.0 < slept[0] <= 0.2


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        """Acceptance criterion: fault at ~50%, resume, compare to serial."""
        path = tmp_path / "sweep.jsonl"
        items = list(range(20))
        reference = [x / 3.0 for x in items]  # uninterrupted serial run

        # Run 1: injected hard fault at the midpoint, no retries.
        ex1 = ResilientExecutor(
            journal=CheckpointJournal(path),
            injector=FaultInjector(fail_indices=(10,)),
            max_attempts=1)
        with pytest.raises(SweepAborted) as ei:
            ex1.map(_LoggingThird(tmp_path / "run1.log"), items)
        assert ei.value.checkpointed
        assert ei.value.n_completed == 19  # everything but the fault

        # Run 2: resume. Only the failed task re-runs; results bit-identical.
        log2 = tmp_path / "run2.log"
        ex2 = ResilientExecutor(journal=CheckpointJournal(path, resume=True))
        resumed = ex2.map(_LoggingThird(log2), items)
        assert resumed == reference  # bitwise float equality
        assert _read_log(log2) == [10]  # only the failed task re-executed

    def test_resume_skips_completed_work(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
            first = ex.map(_LoggingThird(tmp_path / "a.log"), range(8))
        log2 = tmp_path / "b.log"
        with ResilientExecutor(journal=CheckpointJournal(path, resume=True)) as ex:
            again = ex.map(_LoggingThird(log2), range(8))
        assert again == first
        assert _read_log(log2) == []  # nothing re-executed
        assert any(e == "restored:8" for e in ex.events)

    def test_fresh_journal_truncates_stale_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"fp": "junk", "v": "AAAA"}\n')
        journal = CheckpointJournal(path)  # resume=False -> fresh
        assert journal.n_completed == 0
        assert not path.exists()

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
            ex.map(_double, range(4))
        with open(path, "a") as fh:
            fh.write('{"fp": "abc", "v"')  # crash mid-record
        journal = CheckpointJournal(path, resume=True)
        assert journal.n_completed == 4

    def test_unterminated_final_record_is_not_restored(self, tmp_path):
        """A record whose newline never landed is truncated by the next
        append, so restoring it would drop it from the journal for good."""
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record("a", 1)
        journal.record("b", 2)
        journal.close()
        path.write_bytes(path.read_bytes()[:-1])  # b's newline is missing
        resumed = CheckpointJournal(path, resume=True)
        assert resumed.completed() == {"a": 1}
        resumed.record("b", 2)  # recomputed, and journaled this time
        resumed.close()
        assert CheckpointJournal(path, resume=True).completed() == \
            {"a": 1, "b": 2}

    def test_mid_file_corruption_raises(self, tmp_path):
        from repro.errors import CheckpointError

        path = tmp_path / "j.jsonl"
        with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
            ex.map(_double, range(4))
        lines = path.read_text().splitlines()
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 2"):
            CheckpointJournal(path, resume=True)

    def test_journal_round_trips_numpy_values(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        value = np.arange(5, dtype=np.float64) / 3.0
        journal.record("fp1", value)
        journal.close()
        loaded = CheckpointJournal(tmp_path / "j.jsonl", resume=True)
        np.testing.assert_array_equal(loaded.completed()["fp1"], value)


class TestFaultInjector:
    def test_deterministic_per_index_and_attempt(self):
        inj = FaultInjector(seed=7, p_exception=0.5)
        outcomes1 = [self._fires(inj, i, 1) for i in range(40)]
        outcomes2 = [self._fires(inj, i, 1) for i in range(40)]
        assert outcomes1 == outcomes2
        assert any(outcomes1) and not all(outcomes1)
        # A different attempt re-rolls: some faults clear on retry.
        retry_outcomes = [self._fires(inj, i, 2) for i in range(40)]
        assert retry_outcomes != outcomes1

    @staticmethod
    def _fires(inj, index, attempt):
        try:
            inj.fire(index, attempt)
            return False
        except InjectedFault:
            return True

    def test_crash_is_noop_in_driver_process(self):
        # os._exit must never fire in the main process, only in pool workers.
        FaultInjector(crash_indices=(0,)).fire(0, 1)

    def test_parse_spec(self):
        inj = FaultInjector.parse("exc=0.2,delay=0.1,crash=0.05", seed=3)
        assert inj.p_exception == 0.2 and inj.p_delay == 0.1
        assert inj.p_crash == 0.05 and inj.seed == 3
        with pytest.raises(ValueError, match="bad chaos spec"):
            FaultInjector.parse("explode=1.0")
        with pytest.raises(ValueError, match="bad chaos spec"):
            FaultInjector.parse("slow-seconds=1.0")

    def test_injector_is_picklable(self):
        inj = FaultInjector(seed=1, p_exception=0.1, crash_indices=(3,))
        assert pickle.loads(pickle.dumps(inj)) == inj

    def test_probabilistic_chaos_survivable_with_retries(self, no_backoff):
        ex = ResilientExecutor(
            injector=FaultInjector(seed=11, p_exception=0.3),
            max_attempts=6)
        assert ex.map(_double, range(30)) == [2 * i for i in range(30)]


class TestProcessPoolResilience:
    def test_pool_map_with_transient_faults(self, no_backoff):
        inj = FaultInjector(fail_once_indices=(1, 5))
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               injector=inj, max_attempts=3) as ex:
            assert ex.map(_double, range(8)) == [2 * i for i in range(8)]

    def test_worker_crash_rebuild_then_serial_downgrade(self, no_backoff):
        """A worker dies mid-task (os._exit): the wrapper rebuilds the pool
        once, the crash repeats, and the sweep finishes serially with
        complete, ordered results."""
        inj = FaultInjector(crash_indices=(3,))
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               injector=inj, max_attempts=3) as ex:
            out = ex.map(_double, range(10))
            assert out == [2 * i for i in range(10)]  # nothing dropped/reordered
            assert "pool-rebuild" in ex.events
            assert "serial-downgrade" in ex.events

    def test_timeout_kills_hung_worker(self):
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               task_timeout=1.0,
                               max_attempts=1) as ex:
            start = time.monotonic()
            with pytest.raises(SweepAborted) as ei:
                ex.map(_sleep_on_two, range(6))
            elapsed = time.monotonic() - start
        assert elapsed < 20  # the 30s sleeper did not run to completion
        [failure] = ei.value.failures
        assert failure.index == 2 and failure.kind == "timeout"
        assert failure.error_type == "TaskTimeout"
        # Every other task still completed, in order.
        expected = [2 * i if i != 2 else None for i in range(6)]
        assert ei.value.partial_results == expected
        assert "timeout-reset" in ex.events

    def test_timeout_failure_is_a_task_failed(self):
        from repro.errors import TaskFailed

        assert issubclass(TaskTimeout, TaskFailed)

    def test_pool_checkpoint_resume_matches_serial(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        items = list(range(12))
        reference = [_third(x) for x in items]
        inj = FaultInjector(fail_indices=(6,))
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               journal=CheckpointJournal(path), injector=inj,
                               max_attempts=1) as ex:
            with pytest.raises(SweepAborted):
                ex.map(_third, items)
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               journal=CheckpointJournal(path, resume=True)) as ex:
            assert ex.map(_third, items) == reference


class TestSweepIntegration:
    """The design-space sweep runs fixed-length slices through any executor:
    interrupted sweeps resume, and every backend is bit-identical."""

    def test_interrupted_design_sweep_resumes_bit_identical(self, tmp_path, design_space):
        from repro.simulator import get_profile, sweep_design_space
        from repro.simulator.interval import SWEEP_SLICE

        profile = get_profile("gzip")
        reference = sweep_design_space(design_space, profile, method="scalar")
        n_slices = -(-len(design_space) // SWEEP_SLICE)

        # Slice 3 fails on every attempt: the other slices are journaled.
        path = tmp_path / "sweep.jsonl"
        ex1 = ResilientExecutor(
            journal=CheckpointJournal(path),
            injector=FaultInjector(fail_indices=(3,)),
            max_attempts=1)
        with pytest.raises(SweepAborted) as ei:
            sweep_design_space(design_space, profile, executor=ex1)
        assert ei.value.n_completed == n_slices - 1
        assert [f.index for f in ei.value.failures] == [3]

        ex2 = ResilientExecutor(journal=CheckpointJournal(path, resume=True))
        resumed = sweep_design_space(design_space, profile, executor=ex2)
        np.testing.assert_array_equal(resumed, reference)  # bit-identical
        assert f"restored:{n_slices - 1}" in ex2.events
        assert len(path.read_text().splitlines()) == n_slices

    def test_pool_sweep_matches_serial_batch_and_scalar(self, design_space):
        from repro.simulator import get_profile, sweep_design_space

        profile = get_profile("mcf")
        serial = sweep_design_space(design_space, profile)
        scalar = sweep_design_space(design_space, profile, method="scalar")
        with ProcessExecutor(max_workers=2) as ex:
            pooled = sweep_design_space(design_space, profile, executor=ex)
        np.testing.assert_array_equal(pooled, serial)
        np.testing.assert_array_equal(pooled, scalar)

    def test_slice_fingerprints_do_not_depend_on_cpu_count(
            self, tmp_path, design_space, monkeypatch):
        from repro.simulator import get_profile, sweep_design_space
        from repro.simulator.interval import SWEEP_SLICE

        profile = get_profile("applu")
        fingerprints = []
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            path = tmp_path / f"cpus{cpus}.jsonl"
            with ResilientExecutor(journal=CheckpointJournal(path)) as ex:
                sweep_design_space(design_space, profile, executor=ex)
            fingerprints.append(
                [json.loads(line)["fp"] for line in path.read_text().splitlines()])
        assert fingerprints[0] == fingerprints[1]
        assert len(fingerprints[0]) == -(-len(design_space) // SWEEP_SLICE)

    def test_pool_journal_resumes_in_a_serial_run(self, tmp_path, design_space):
        from repro.simulator import get_profile, sweep_design_space

        profile = get_profile("swim")
        configs = design_space[:1500]
        path = tmp_path / "sweep.jsonl"
        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               journal=CheckpointJournal(path)) as ex:
            pooled = sweep_design_space(configs, profile, executor=ex)
        with ResilientExecutor(journal=CheckpointJournal(path, resume=True)) as ex:
            resumed = sweep_design_space(configs, profile, executor=ex)
        np.testing.assert_array_equal(resumed, pooled)
        assert "restored:3" in ex.events

    def test_scalar_oracle_takes_no_executor(self, design_space):
        from repro.parallel import SerialExecutor
        from repro.simulator import get_profile, sweep_design_space

        with pytest.raises(ValueError, match="scalar"):
            sweep_design_space(design_space[:4], get_profile("gcc"),
                               executor=SerialExecutor(), method="scalar")


#: Executor backends an executor-threaded model-fit driver must be
#: bit-identical across; ``executor=None`` is the reference they match.
_FIT_BACKENDS = {
    "serial": SerialExecutor,
    "process": lambda: ProcessExecutor(max_workers=2),
    "resilient-process": lambda: ResilientExecutor(ProcessExecutor(max_workers=2)),
}


def _fit_case(case, executor, space_dataset, spec_archive):
    """Run one model-fit driver; return its per-label (per_rep, true error)
    and its selected label, the values every backend must reproduce."""
    from repro.core import model_builders, run_chronological, run_sampled_dse
    from repro.ml.selection import estimate_error, estimate_errors

    builders = model_builders(("LR-B", "NN-Q"))
    sample, _ = space_dataset("gzip").sample(40, np.random.default_rng(0))
    if case == "estimate_error":
        est = estimate_error(builders["NN-Q"], sample, np.random.default_rng(5),
                             n_reps=3, executor=executor)
        return {"NN-Q": (est.per_rep, None)}, None
    if case == "all_labels":  # estimate_errors over every builder
        ests = estimate_errors(builders, sample, np.random.default_rng(5),
                               n_reps=3, executor=executor)
        return {k: (e.per_rep, None) for k, e in ests.items()}, None
    if case == "run_sampled_dse":
        res = run_sampled_dse(space_dataset("gzip"), builders, 0.01,
                              np.random.default_rng(5), n_cv_reps=2, executor=executor)
        return ({k: (o.estimate.per_rep, o.true_error) for k, o in res.outcomes.items()},
                res.select_label)
    res = run_chronological("pentium-d", builders, seed=0, n_cv_reps=2,
                            records=spec_archive("pentium-d"), executor=executor)
    return ({k: (res.estimates[k].per_rep, res.errors[k].mean) for k in builders},
            res.best_label)


class TestDriverDeterminism:
    """Executor-threaded drivers return bit-identical results vs serial."""

    @pytest.mark.parametrize("backend", sorted(_FIT_BACKENDS))
    @pytest.mark.parametrize("case", ["estimate_error", "all_labels",
                                      "run_sampled_dse", "run_chronological"])
    def test_estimate_error_executor_identical(
            self, case, backend, space_dataset, spec_archive):
        reference = _fit_case(case, None, space_dataset, spec_archive)
        with _FIT_BACKENDS[backend]() as ex:
            assert _fit_case(case, ex, space_dataset, spec_archive) == reference

    def test_pool_fit_journal_resumes_in_a_serial_run(self, tmp_path, space_dataset):
        from repro.core import model_builders, run_sampled_dse

        space = space_dataset("applu")
        builders = model_builders(("LR-B", "NN-Q"))
        path = tmp_path / "fits.jsonl"

        def run(ex):
            res = run_sampled_dse(space, builders, 0.01, np.random.default_rng(3),
                                  n_cv_reps=3, executor=ex)
            return {k: (o.estimate.per_rep, o.true_error) for k, o in res.outcomes.items()}

        with ResilientExecutor(ProcessExecutor(max_workers=2),
                               journal=CheckpointJournal(path)) as ex:
            pooled = run(ex)
        lines = path.read_text().splitlines()
        assert len(lines) == len(builders)  # one line per whole estimate
        with ResilientExecutor(journal=CheckpointJournal(path, resume=True)) as ex:
            resumed = run(ex)
        assert resumed == pooled
        assert f"restored:{len(builders)}" in ex.events
        assert path.read_text().splitlines() == lines

    def test_rolling_chronological_executor_identical(self, spec_archive):
        from repro.core import model_builders, run_rolling_chronological

        records = spec_archive("pentium-d")
        builders = model_builders(("LR-E",))
        serial = run_rolling_chronological(
            "pentium-d", builders, n_cv_reps=2, records=records)
        with ResilientExecutor() as ex:
            resilient = run_rolling_chronological(
                "pentium-d", builders, n_cv_reps=2, records=records, executor=ex)
        assert len(serial) == len(resilient)
        for a, b in zip(serial, resilient):
            assert a.mean_errors() == b.mean_errors()


class TestJournalsWithoutSharedMemory:
    """Task fingerprints hash the data a task carries, so a journal's
    restore does not depend on the host's shared memory."""

    def test_journals_restore_when_shared_memory_is_refused(
            self, tmp_path, design_space, space_dataset, monkeypatch):
        from multiprocessing import shared_memory

        from repro.core import model_builders, run_sampled_dse
        from repro.simulator import get_profile, sweep_design_space

        profile = get_profile("mcf")
        builders = model_builders(("LR-B", "NN-Q"))
        sweep_path, fits_path = tmp_path / "sweep.jsonl", tmp_path / "fits.jsonl"

        def run(resume):
            with ResilientExecutor(journal=CheckpointJournal(sweep_path, resume=resume)) as ex:
                cycles = sweep_design_space(design_space, profile, executor=ex)
                sweep_events = list(ex.events)
            with ResilientExecutor(journal=CheckpointJournal(fits_path, resume=resume)) as ex:
                res = run_sampled_dse(space_dataset("applu"), builders, 0.01,
                                      np.random.default_rng(3), n_cv_reps=3, executor=ex)
                fit_events = list(ex.events)
            fits = {k: (o.estimate.per_rep, o.true_error) for k, o in res.outcomes.items()}
            return cycles, fits, sweep_events, fit_events

        written, written_fits, _, _ = run(resume=False)

        def refuse(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        resumed, resumed_fits, sweep_events, fit_events = run(resume=True)
        assert "restored:9" in sweep_events
        assert f"restored:{len(builders)}" in fit_events
        np.testing.assert_array_equal(resumed, written)
        assert resumed_fits == written_fits
