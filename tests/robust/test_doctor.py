"""Tests for the ``repro doctor`` environment self-check."""

import io
import re
import sys
from pathlib import Path

from repro.cli import main
from repro.robust import run_doctor
from repro.robust.doctor import DoctorCheck, DoctorReport


class TestRunDoctor:
    def test_healthy_environment_passes(self):
        report = run_doctor()
        assert report.ok
        assert report.exit_code == 0
        names = [c.name for c in report.checks]
        assert {"python", "numpy", "cache-dir", "seed-repro"} <= set(names)

    def test_render_is_readable(self):
        report = run_doctor()
        buf = io.StringIO()
        text = report.render(buf)
        assert buf.getvalue() == text
        assert text.startswith("repro doctor")
        assert "all checks passed" in text
        for check in report.checks:
            assert check.name in text

    def test_failure_reported_with_nonzero_exit(self):
        report = DoctorReport(checks=[
            DoctorCheck("good", True, "fine"),
            DoctorCheck("bad", False, "broken thing"),
        ])
        assert not report.ok
        assert report.exit_code == 1
        text = report.render(io.StringIO())
        assert "FAIL" in text and "broken thing" in text
        assert "1 of 2 check(s) FAILED" in text

    def test_unwritable_cache_dir_fails(self, tmp_path, monkeypatch):
        target = tmp_path / "file-not-dir"
        target.write_text("occupied")  # mkdir under a file must fail
        monkeypatch.setenv("REPRO_CACHE_DIR", str(target / "sub"))
        report = run_doctor()
        cache_check = next(c for c in report.checks if c.name == "cache-dir")
        assert not cache_check.passed
        assert report.exit_code == 1

    def test_crashing_probe_becomes_failed_check(self, monkeypatch):
        import repro.robust.doctor as doctor_mod

        def boom():
            raise RuntimeError("probe exploded")

        boom.__name__ = "_check_numpy"
        monkeypatch.setattr(doctor_mod, "_CHECKS", (boom,))
        report = doctor_mod.run_doctor()
        assert not report.ok
        assert report.checks[0].name == "numpy"
        assert "probe exploded" in report.checks[0].detail


class TestDependencyFloors:
    """numpy and scipy are both hard dependencies; doctor checks each
    against the floor ``pyproject.toml`` declares."""

    @staticmethod
    def declared_floor(package):
        pyproject = Path(__file__).parents[2] / "pyproject.toml"
        m = re.search(rf'"{package}>=(\d+)\.(\d+)"', pyproject.read_text())
        assert m, f"{package} floor not found in pyproject.toml"
        return int(m.group(1)), int(m.group(2))

    def test_floors_match_pyproject(self):
        import repro.robust.doctor as doctor_mod

        assert doctor_mod._MIN_NUMPY == self.declared_floor("numpy")
        assert doctor_mod._MIN_SCIPY == self.declared_floor("scipy")

    def test_installed_scipy_passes_without_optional_wording(self):
        check = next(c for c in run_doctor().checks if c.name == "scipy")
        assert check.passed
        assert "optional" not in check.detail

    def test_old_scipy_fails(self, monkeypatch):
        import scipy

        from repro.robust.doctor import _check_scipy

        monkeypatch.setattr(scipy, "__version__", "1.9.3")
        check = _check_scipy()
        assert not check.passed
        assert check.detail == "1.9.3 (need >= 1.10)"

    def test_missing_scipy_fails(self, monkeypatch):
        from repro.robust.doctor import _check_scipy

        monkeypatch.setitem(sys.modules, "scipy", None)  # import raises
        check = _check_scipy()
        assert not check.passed
        assert "not installed" in check.detail

    def test_old_numpy_fails(self, monkeypatch):
        import repro.robust.doctor as doctor_mod

        monkeypatch.setattr(doctor_mod.np, "__version__", "1.23.5")
        check = doctor_mod._check_numpy()
        assert not check.passed
        assert check.detail == "1.23.5 (need >= 1.24)"


class TestServiceProbes:
    def test_new_probes_present_and_healthy(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        report = run_doctor()
        names = [c.name for c in report.checks]
        assert {"spool-dir", "fd-headroom", "mp-start-method",
                "stale-leases"} <= set(names)
        assert report.ok

    def test_spool_dir_unset_is_fine(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        check = next(c for c in run_doctor().checks if c.name == "spool-dir")
        assert check.passed
        assert "unset" in check.detail

    def test_spool_dir_probed_when_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(tmp_path / "spool"))
        check = next(c for c in run_doctor().checks if c.name == "spool-dir")
        assert "flock" in check.detail
        from repro.util.locking import FileLock

        assert check.passed == FileLock.enforced

    def test_unwritable_spool_dir_fails(self, tmp_path, monkeypatch):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(blocker / "spool"))
        check = next(c for c in run_doctor().checks if c.name == "spool-dir")
        assert not check.passed
        assert "not writable" in check.detail

    def test_stale_leases_reported(self, tmp_path, monkeypatch):
        from repro.service import JobSpec, JobSpool, SpoolConfig

        root = tmp_path / "spool"
        spool = JobSpool.ensure(root, SpoolConfig(lease_ttl=0.001))
        spool.submit(JobSpec(kind="sweep", app="gcc", stop=4))
        spool.claim("dead-worker", now=0.0)  # long expired
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks if c.name == "stale-leases")
        assert check.passed  # informational: re-dispatch handles it
        assert "1 job(s) abandoned" in check.detail

    def test_corrupt_spool_fails_the_probe(self, tmp_path, monkeypatch):
        from repro.service import JobSpool

        root = tmp_path / "spool"
        spool = JobSpool.ensure(root)
        spool.log_path.write_text("garbage\n{}\n")
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks if c.name == "stale-leases")
        assert not check.passed
        assert "spool unreadable" in check.detail


class TestSpoolBloatProbe:
    def probe(self):
        return next(c for c in run_doctor().checks if c.name == "spool-bloat")

    def test_unset_spool_dir_is_fine(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        check = self.probe()
        assert check.passed
        assert "no spool" in check.detail

    def test_lean_spool_passes_with_detail(self, tmp_path, monkeypatch):
        from repro.service import JobSpec, JobSpool

        root = tmp_path / "spool"
        JobSpool.ensure(root).submit(JobSpec(kind="sweep", app="gcc", stop=4))
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = self.probe()
        assert check.passed
        assert "1 event line(s)" in check.detail
        assert "never compacted" in check.detail

    def test_compacted_spool_reports_generation(self, tmp_path, monkeypatch):
        from repro.service import JobSpec, JobSpool, compact

        root = tmp_path / "spool"
        spool = JobSpool.ensure(root)
        spool.submit(JobSpec(kind="sweep", app="gcc", stop=4))
        compact(spool)
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = self.probe()
        assert check.passed
        assert "snapshot g1" in check.detail

    def test_bloated_log_fails_with_the_fix(self, tmp_path, monkeypatch):
        import repro.robust.doctor as doctor_mod
        from repro.service import JobSpec, JobSpool

        root = tmp_path / "spool"
        spool = JobSpool.ensure(root)
        for i in range(3):
            spool.submit(JobSpec(kind="sweep", app="gcc", start=i, stop=i + 1))
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        monkeypatch.setattr(doctor_mod, "_SPOOL_BLOAT_EVENTS", 2)
        check = self.probe()
        assert not check.passed
        assert "repro spool compact" in check.detail

    def test_unreadable_snapshot_fails_pointing_at_verify(
            self, tmp_path, monkeypatch):
        from repro.service import JobSpool

        root = tmp_path / "spool"
        JobSpool.ensure(root)
        (root / "spoolsnap.json").write_text("not json")
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = self.probe()
        assert not check.passed
        assert "repro spool verify" in check.detail


class TestObservabilityProbes:
    def test_probes_present_and_healthy_when_unconfigured(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_DIR", raising=False)
        monkeypatch.delenv("REPRO_STATUS_FILE", raising=False)
        report = run_doctor()
        names = [c.name for c in report.checks]
        assert {"status-file", "shard-snapshots", "clock-skew"} <= set(names)
        assert report.ok

    def test_status_file_writable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATUS_FILE",
                           str(tmp_path / "svc" / "status.json"))
        check = next(c for c in run_doctor().checks
                     if c.name == "status-file")
        assert check.passed
        assert "writable" in check.detail

    def test_status_file_unwritable_fails(self, tmp_path, monkeypatch):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_STATUS_FILE",
                           str(blocker / "sub" / "status.json"))
        check = next(c for c in run_doctor().checks
                     if c.name == "status-file")
        assert not check.passed
        assert "not writable" in check.detail

    def _live_shard_spool(self, tmp_path):
        from repro.service import JobSpool

        root = tmp_path / "spool"
        spool = JobSpool.ensure(root)
        spool.heartbeat("w0")
        return root, spool

    def test_live_shard_without_snapshot_is_stale(self, tmp_path, monkeypatch):
        root, _ = self._live_shard_spool(tmp_path)
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks
                     if c.name == "shard-snapshots")
        assert not check.passed
        assert "no snapshot" in check.detail

    def test_fresh_snapshot_passes(self, tmp_path, monkeypatch):
        import json
        import time

        root, _ = self._live_shard_spool(tmp_path)
        mdir = root / "metrics"
        mdir.mkdir()
        (mdir / "w0.json").write_text(json.dumps({"t": time.time()}))
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks
                     if c.name == "shard-snapshots")
        assert check.passed
        assert "snapshots current" in check.detail

    def test_snapshot_far_behind_heartbeat_fails(self, tmp_path, monkeypatch):
        import json
        import time

        root, _ = self._live_shard_spool(tmp_path)
        mdir = root / "metrics"
        mdir.mkdir()
        (mdir / "w0.json").write_text(json.dumps({"t": time.time() - 300.0}))
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks
                     if c.name == "shard-snapshots")
        assert not check.passed
        assert "behind" in check.detail

    def test_fresh_heartbeat_from_exited_shard_not_live(
            self, tmp_path, monkeypatch):
        """A just-drained service leaves recent heartbeats behind; a shard
        whose process no longer exists must not be probed for staleness."""
        import json

        root, spool = self._live_shard_spool(tmp_path)
        hb_path = root / "hb" / "w0.json"
        hb = json.loads(hb_path.read_text())
        hb["pid"] = 2 ** 22 + 1  # beyond linux's default pid_max
        hb_path.write_text(json.dumps(hb))
        monkeypatch.setenv("REPRO_SPOOL_DIR", str(root))
        check = next(c for c in run_doctor().checks
                     if c.name == "shard-snapshots")
        assert check.passed
        assert "no live shards" in check.detail

    def _skewed_spool(self, tmp_path, skew):
        import json
        import time

        root = tmp_path / "spool"
        obs = root / "obs"
        obs.mkdir(parents=True)
        now = time.time()
        with open(root / "spool.jsonl", "w") as fh:
            fh.write(json.dumps({"ev": "submit", "id": "j1", "t": now - 10,
                                 "trace_id": "j1",
                                 "spec": {"kind": "sweep"}}) + "\n")
            fh.write(json.dumps({"ev": "lease", "id": "j1", "t": now,
                                 "worker": "w0"}) + "\n")
        (obs / "trace.w0.jsonl").write_text(json.dumps({
            "schema": "repro-trace/1", "kind": "span", "span_id": 1,
            "parent_id": None, "name": "job.execute",
            "t_wall": now - skew, "t_start": 0.0, "duration_s": 1.0,
            "status": "ok", "error": None, "trace_id": "j1", "attrs": {},
        }) + "\n")
        return root

    def test_clock_skew_within_bounds_passes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPOOL_DIR",
                           str(self._skewed_spool(tmp_path, skew=-0.5)))
        check = next(c for c in run_doctor().checks if c.name == "clock-skew")
        assert check.passed
        assert "1 span/lease pair(s)" in check.detail

    def test_execute_span_before_lease_fails(self, tmp_path, monkeypatch):
        # span opens 2 minutes before the lease that dispatched it: the
        # shard's clock disagrees with the submitter's beyond the bound
        monkeypatch.setenv("REPRO_SPOOL_DIR",
                           str(self._skewed_spool(tmp_path, skew=120.0)))
        check = next(c for c in run_doctor().checks if c.name == "clock-skew")
        assert not check.passed
        assert "clocks disagree" in check.detail


class TestDoctorCli:
    def test_exit_zero_when_healthy(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "repro doctor" in out
        assert "all checks passed" in out

    def test_exit_nonzero_on_failure(self, monkeypatch, capsys):
        import repro.robust.doctor as doctor_mod

        monkeypatch.setattr(
            doctor_mod, "_CHECKS",
            (lambda: DoctorCheck("synthetic", False, "induced failure"),))
        assert main(["doctor"]) == 1
        assert "induced failure" in capsys.readouterr().out
