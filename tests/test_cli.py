"""Tests for the command-line interface."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_args(self):
        args = build_parser().parse_args(["sweep", "mcf"])
        assert args.command == "sweep" and args.app == "mcf"

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "quake3"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sampled-dse", "gcc", "--models", "GBM"])

    def test_chronological_defaults(self):
        args = build_parser().parse_args(["chronological", "xeon"])
        assert args.train_year == 2005 and args.test_year == 2006
        assert len(args.models) == 9

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            ["sweep", "mcf", "--parallel", "--retries", "2",
             "--task-timeout", "30", "--checkpoint", "j.jsonl", "--resume"])
        assert args.parallel and args.retries == 2
        assert args.task_timeout == 30.0
        assert args.checkpoint == "j.jsonl" and args.resume

    def test_resilience_defaults_off(self):
        args = build_parser().parse_args(["sampled-dse", "gcc"])
        assert not args.parallel and args.retries == 0
        assert args.task_timeout is None and args.checkpoint is None

    def test_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", "mcf", "--resume"])
        assert ei.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["sweep", "mcf", "--retries", "-1", "--chaos", "exc=0.0"])
        assert ei.value.code == 2
        assert "--retries must be >= 0" in capsys.readouterr().err


class TestCommands:
    def test_sweep_runs(self, capsys):
        assert main(["sweep", "applu"]) == 0
        out = capsys.readouterr().out
        assert "4608 configurations" in out
        assert "range" in out

    def test_sampled_dse_runs(self, capsys):
        rc = main(["sampled-dse", "applu", "--rates", "0.01",
                   "--models", "LR-B", "--cv-reps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Model Error - applu" in out
        assert "LR-B" in out

    def test_chronological_runs(self, capsys):
        rc = main(["chronological", "pentium-d", "--models", "LR-E", "LR-B"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Chronological Predictions - pentium-d" in out
        assert "best:" in out

    def test_chronological_app_target(self, capsys):
        rc = main(["chronological", "opteron", "--models", "LR-B",
                   "--target", "app:181.mcf"])
        assert rc == 0
        assert "best:" in capsys.readouterr().out

    def test_importance_runs(self, capsys):
        assert main(["importance", "opteron", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "standardized beta" in out
        assert "sensitivity importance" in out


class TestUnwritableOutputs:
    """An obs output path that cannot be written is a one-line error."""

    @pytest.mark.parametrize("flag", ["--trace-file", "--metrics-file"])
    def test_fails_before_the_run_without_traceback(self, flag, tmp_path):
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        p = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "mcf", flag,
             str(blocker / "out.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert p.returncode == 1
        assert p.stdout == ""  # no part of the sweep ran
        assert "Traceback" not in p.stderr
        lines = p.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")
        assert flag in lines[0] and str(blocker) in lines[0]


class TestCacheCLI:
    """Cache probes in the --trace-file stream and the cache stats view."""

    @pytest.fixture(autouse=True)
    def _fresh_default_cache(self):
        from repro.cache import reset_default_cache

        yield
        reset_default_cache()

    def test_cache_stats_reports_counters(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "disk entries" in out and "disk bytes" in out
        assert "this process" not in out

    def test_sweep_cache_trace_writes_capture(self, tmp_path):
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        assert main(["sweep", "applu", "--trace-file", str(trace)]) == 0
        records, malformed = read_trace(trace)
        probes = [r for r in records if r["name"] == "cache.probe"]
        assert malformed == 0 and probes
        assert all(r["kind"] == "event"
                   and r["attrs"]["kind"] == "sweep-cycles" for r in probes)


class TestFaultTolerance:
    """The resilience flags and the exit-code / stderr contract."""

    def test_sweep_with_checkpoint_writes_journal(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        rc = main(["sweep", "applu", "--checkpoint", str(path)])
        assert rc == 0
        assert path.exists() and path.stat().st_size > 0
        assert "4608 configurations" in capsys.readouterr().out

    def test_sweep_resume_reuses_journal(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", "applu", "--checkpoint", str(path)]) == 0
        first = capsys.readouterr().out
        size = path.stat().st_size
        assert main(["sweep", "applu", "--checkpoint", str(path), "--resume"]) == 0
        assert capsys.readouterr().out == first  # identical report
        assert path.stat().st_size == size       # nothing re-journaled

    def test_service_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--spool", "s"])
        assert args.workers == 2 and args.max_depth == 64
        assert args.lease_ttl == 30.0 and args.heartbeat_timeout == 10.0
        assert not args.drain_on_idle and args.max_runtime is None
        assert args.idle_grace == 3.0  # quickstart: serve &, then submit
        assert args.chaos_sigkill_at is None  # hidden chaos knobs parse

    def test_serve_requires_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_parser(self):
        args = build_parser().parse_args(
            ["submit", "--spool", "s", "sweep", "gcc", "--stop", "8",
             "--deadline", "5", "--wait"])
        assert args.kind == "sweep" and args.app == "gcc"
        assert args.stop == 8 and args.deadline == 5.0 and args.wait
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--spool", "s", "retrain", "gcc"])

    def test_chaos_abort_maps_to_exit_code_and_one_line_stderr(self, capsys):
        from repro.errors import SweepAborted

        rc = main(["sweep", "applu", "--chaos", "exc=1.0"])
        assert rc == SweepAborted.exit_code
        err = capsys.readouterr().err
        assert err.startswith("repro: error: sweep aborted")
        assert len(err.strip().splitlines()) == 1  # no traceback
        assert "Traceback" not in err

    def test_chaos_survived_with_retries(self, capsys):
        # Deterministic (seeded) chaos: transient faults clear on retry.
        rc = main(["sampled-dse", "applu", "--rates", "0.01",
                   "--models", "LR-B", "--cv-reps", "2",
                   "--chaos", "exc=0.3", "--retries", "5"])
        assert rc == 0
        assert "Model Error - applu" in capsys.readouterr().out

    def test_chaos_output_matches_fault_free_run(self, capsys):
        argv = ["sampled-dse", "applu", "--rates", "0.01",
                "--models", "LR-B", "--cv-reps", "2"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        assert main(argv + ["--chaos", "exc=0.3", "--retries", "5"]) == 0
        assert capsys.readouterr().out == clean  # faults never change numbers

    def test_bad_chaos_spec_is_clean_error(self, capsys):
        rc = main(["sweep", "applu", "--chaos", "explode=1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err


class TestServiceCommands:
    """submit/jobs against a spool directory, no daemon required."""

    def _submit(self, spool, capsys, *extra):
        rc = main(["submit", "--spool", spool, "sweep", "gcc",
                   "--stop", "8", "--n-instructions", "1000000", *extra])
        out = capsys.readouterr().out
        return rc, out.strip().splitlines()[-1] if out.strip() else ""

    def test_submit_prints_job_id(self, tmp_path, capsys):
        rc, jid = self._submit(str(tmp_path / "s"), capsys)
        assert rc == 0
        assert len(jid) == 32  # the content fingerprint

    def test_duplicate_submit_is_idempotent(self, tmp_path, capsys):
        spool = str(tmp_path / "s")
        _, first = self._submit(spool, capsys)
        _, second = self._submit(spool, capsys)
        assert first == second

    def test_overload_maps_to_typed_exit_code(self, tmp_path, capsys):
        from repro.errors import ServiceOverloadError
        from repro.service import JobSpool, SpoolConfig

        spool = str(tmp_path / "s")
        JobSpool.ensure(spool, SpoolConfig(max_depth=1))
        assert self._submit(spool, capsys)[0] == 0
        rc = main(["submit", "--spool", spool, "sweep", "mcf",
                   "--stop", "8", "--n-instructions", "1000000"])
        assert rc == ServiceOverloadError.exit_code == 12
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "retry later" in err and "Traceback" not in err

    def test_submit_wait_blocks_until_done(self, tmp_path, capsys):
        import threading

        from repro.service import JobSpool, drain_queue

        spool_dir = str(tmp_path / "s")
        spool = JobSpool.ensure(spool_dir)

        def drain_soon():
            time.sleep(0.3)
            drain_queue(spool)

        t = threading.Thread(target=drain_soon)
        t.start()
        try:
            rc = main(["submit", "--spool", spool_dir, "sweep", "gcc",
                       "--stop", "8", "--n-instructions", "1000000",
                       "--wait", "--timeout", "60"])
        finally:
            t.join()
        assert rc == 0
        assert "[done]" in capsys.readouterr().err

    def test_failed_job_propagates_its_exit_code(self, tmp_path, capsys):
        import threading

        from repro.errors import JobDeadlineExceeded
        from repro.service import JobSpool, drain_queue

        spool_dir = str(tmp_path / "s")
        spool = JobSpool.ensure(spool_dir)

        def drain_soon():
            time.sleep(0.3)
            drain_queue(spool)

        t = threading.Thread(target=drain_soon)
        t.start()
        try:
            rc = main(["submit", "--spool", spool_dir, "sweep", "gcc",
                       "--stop", "8", "--n-instructions", "1000000",
                       "--deadline", "0.000001", "--wait", "--timeout", "60"])
        finally:
            t.join()
        assert rc == JobDeadlineExceeded.exit_code == 14
        err = capsys.readouterr().err
        assert "JobDeadlineExceeded" in err and "Traceback" not in err

    def test_jobs_listing_table_and_json(self, tmp_path, capsys):
        import json

        spool = str(tmp_path / "s")
        _, jid = self._submit(spool, capsys)
        assert main(["jobs", "--spool", spool]) == 0
        table = capsys.readouterr().out
        assert jid[:12] in table and "pending" in table
        assert main(["jobs", "--spool", spool, "--json"]) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.splitlines()]
        assert [r["id"] for r in records] == [jid]
        assert records[0]["state"] == "pending"
        assert records[0]["spec"]["app"] == "gcc"

    def test_jobs_empty_spool(self, tmp_path, capsys):
        from repro.service import JobSpool

        spool = str(tmp_path / "s")
        JobSpool.ensure(spool)
        assert main(["jobs", "--spool", spool]) == 0
        assert "(no jobs)" in capsys.readouterr().out


class TestSpoolCommands:
    """repro spool compact/verify against a populated spool directory."""

    def _populated(self, tmp_path):
        from repro.service import JobSpec, JobSpool

        spool = JobSpool.ensure(tmp_path / "s")
        done = spool.submit(JobSpec(kind="sweep", app="gcc", stop=4,
                                    n_instructions=1_000_000))
        spool.claim("w0", now=100.0)
        spool.complete(done, "w0", {"ok": True}, elapsed=0.1)
        pending = spool.submit(JobSpec(kind="sweep", app="mcf", stop=4,
                                       n_instructions=1_000_000))
        return spool, done, pending

    def test_compact_then_verify_roundtrip(self, tmp_path, capsys):
        import json

        spool, done, pending = self._populated(tmp_path)
        assert main(["spool", "compact", "--spool", str(spool.root),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["generation"] == 1
        assert stats["n_jobs"] == 2
        assert main(["spool", "verify", "--spool", str(spool.root)]) == 0
        out = capsys.readouterr().out
        assert "spool OK (generation 1)" in out

    def test_compact_human_output(self, tmp_path, capsys):
        spool, *_ = self._populated(tmp_path)
        assert main(["spool", "compact", "--spool", str(spool.root)]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out and "folded" in out

    def test_verify_report_file_and_json(self, tmp_path, capsys):
        import json

        spool, *_ = self._populated(tmp_path)
        report_path = tmp_path / "reports" / "verify.json"
        assert main(["spool", "verify", "--spool", str(spool.root),
                     "--json", "--out", str(report_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(report_path.read_text())
        assert printed["ok"] and saved["ok"]
        assert saved["schema"] == "repro-spoolverify/1"

    def test_verify_failure_exits_nonzero(self, tmp_path, capsys):
        from repro.service import compact

        spool, *_ = self._populated(tmp_path)
        compact(spool)
        (spool.root / "spoolsnap.json").unlink()  # lose the snapshot
        assert main(["spool", "verify", "--spool", str(spool.root)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_expect_jobs_oracle(self, tmp_path, capsys):
        import json

        spool, done, pending = self._populated(tmp_path)
        oracle = tmp_path / "expect.json"
        oracle.write_text(json.dumps({done: "done", pending: "pending"}))
        assert main(["spool", "verify", "--spool", str(spool.root),
                     "--expect-jobs", str(oracle)]) == 0
        capsys.readouterr()
        oracle.write_text(json.dumps({done: "failed"}))
        assert main(["spool", "verify", "--spool", str(spool.root),
                     "--expect-jobs", str(oracle)]) == 1
        assert "mismatch" in capsys.readouterr().out

    def test_missing_spool_is_typed_error(self, tmp_path, capsys):
        from repro.errors import ServiceError

        rc = main(["spool", "verify", "--spool", str(tmp_path / "absent")])
        assert rc == ServiceError.exit_code == 11
        assert "no spool directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["jobs"], ["spool", "compact"], ["spool", "verify"],
        ["obs", "report"], ["obs", "aggregate"]])
    def test_every_reader_of_a_missing_spool_exits_11(self, argv, tmp_path,
                                                      capsys):
        from repro.errors import ServiceError

        absent = tmp_path / "absent"
        rc = main(argv + ["--spool", str(absent)])
        assert rc == ServiceError.exit_code == 11
        err = capsys.readouterr().err
        assert err == f"repro: error: no spool directory at {absent}\n"
        assert not absent.exists()

    def test_serve_compaction_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--spool", "s", "--no-auto-compact",
             "--compact-after-bytes", "1024", "--compact-after-events", "9"])
        assert args.no_auto_compact
        assert args.compact_after_bytes == 1024
        assert args.compact_after_events == 9
        defaults = build_parser().parse_args(["serve", "--spool", "s"])
        assert not defaults.no_auto_compact
        assert defaults.compact_after_bytes == 4 * 1024 * 1024
