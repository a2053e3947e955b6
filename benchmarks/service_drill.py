"""Service drill: kill a worker mid-run and prove nothing is lost.

End-to-end exercise of the fault-tolerant job service through its public
surface only (the ``repro serve`` / ``submit`` / ``jobs`` CLI plus the
spool directory), the way CI drives it:

1. **Pre-daemon submission** — a spool is created with a depth bound of 4
   and filled to that bound with real sweep jobs before any daemon exists
   (the queue is durable; the daemon is optional at submission time).
2. **Typed load shedding** — the fifth submission must be *rejected*, not
   queued and not hung, with the :class:`~repro.errors.ServiceOverloadError`
   exit code (12).
3. **Kill a worker mid-run** — the daemon starts with a chaos injector
   that SIGKILLs the first-generation workers mid-sweep. The supervisor
   must detect the deaths, restart the shards, re-dispatch the expired
   leases, and run each interrupted job again from its first slice.
4. **Bit-identical results** — every job's cycle vector must equal the
   serial in-process oracle exactly. Crash recovery that changes results
   is worse than crashing.
5. **External SIGKILL + deadline** — one more worker is murdered from
   outside (pid read from its heartbeat file, as an operator would), and a
   job submitted with an already-impossible deadline must fail with the
   :class:`~repro.errors.JobDeadlineExceeded` exit code (14).
6. **Observability plane** — the same chaos drill runs twice more on fresh
   spools, once plain and once with ``--obs --status-file``. The traced run
   must produce a merged timeline (``repro obs aggregate``) in which every
   job's spans share its single trace id across submit/lease/execute/retry
   and every record validates against ``repro-trace/1``; ``repro obs
   report`` must print non-empty p50/p95/p99 for all four SLO histograms;
   the shard metrics snapshots must merge (``--metrics-out``) into one
   ``repro-metrics/1`` document covering at least two snapshots with a
   nonzero ``service.jobs.completed``;
   both runs must stay bit-identical to the serial oracle; and the traced
   run may not cost more than 5% extra wall-clock (with a small absolute
   floor so scheduler noise on a ~seconds-long drill cannot flake CI).

Artifacts (spool event log, job listing, merged timeline, aggregated
shard metrics, obs report, final status snapshot, drill report JSON) are
copied to ``benchmarks/results/`` for CI upload.

Run::

    PYTHONPATH=src python benchmarks/service_drill.py [--out-dir PATH]

Exit codes: 0 ok; 2 a drill invariant failed (details on stderr).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

APPS = ("gcc", "mcf", "gzip", "art")
#: Jobs of three 512-config slices (the sweep task), so the first-generation
#: SIGKILL at task index KILL_AT lands on the middle slice of a job.
SLICE_STOP = 1536
KILL_AT = 1
N_INSTR = 1_000_000
SEED = 7


def _fail(msg: str) -> None:
    print(f"service_drill: FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def _cli(*argv: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env)


#: Traced-run overhead gate: fail beyond 5% — but only past an absolute
#: floor, so a ~20s drill cannot flake on a second of scheduler noise.
OVERHEAD_PCT = 5.0
OVERHEAD_FLOOR_S = 1.0

OBS_APPS = ("gcc", "mcf")


def _run_chaos_serve(spool_dir: Path, *extra: str) -> float:
    """Submit OBS_APPS jobs and drain them under chaos; returns wall-clock."""
    for app in OBS_APPS:
        p = _cli("submit", "--spool", str(spool_dir), "sweep", app,
                 "--stop", str(SLICE_STOP), "--n-instructions", str(N_INSTR))
        if p.returncode != 0:
            _fail(f"obs drill submit {app} rc={p.returncode}: {p.stderr}")
    t0 = time.monotonic()
    p = _cli("serve", "--spool", str(spool_dir), "--workers", "2",
             "--lease-ttl", "2", "--heartbeat-timeout", "5",
             "--drain-on-idle", "--max-runtime", "120",
             "--chaos-sigkill-at", str(KILL_AT), "--seed", str(SEED), *extra)
    elapsed = time.monotonic() - t0
    if p.returncode != 0:
        _fail(f"obs drill serve rc={p.returncode}: {p.stderr}")
    return elapsed


def obs_drill(workdir: Path, out_dir: Path, report: dict) -> None:
    """Step 6: the traced-vs-untraced chaos drill (see module docstring)."""
    from repro.obs import validate_record
    from repro.service import JobSpool
    from repro.simulator import (
        enumerate_design_space,
        get_profile,
        sweep_design_space,
    )

    plain_dir = workdir / "obs-plain"
    traced_dir = workdir / "obs-traced"
    status_file = workdir / "status.json"
    plain_s = _run_chaos_serve(plain_dir)
    traced_s = _run_chaos_serve(
        traced_dir, "--obs", "--status-file", str(status_file),
        "--status-interval", "0.5")
    print(f"service_drill: obs drill untraced {plain_s:.2f}s, "
          f"traced {traced_s:.2f}s")
    report["obs_untraced_seconds"] = round(plain_s, 2)
    report["obs_traced_seconds"] = round(traced_s, 2)
    overhead = traced_s - plain_s
    pct = 100.0 * overhead / plain_s if plain_s > 0 else 0.0
    report["obs_overhead_pct"] = round(pct, 2)
    if pct > OVERHEAD_PCT and overhead > OVERHEAD_FLOOR_S:
        _fail(f"tracing overhead {pct:.1f}% ({overhead:.2f}s) exceeds "
              f"{OVERHEAD_PCT:g}% — the plane is not cheap enough")

    # Both runs bit-identical to the serial oracle (and thus each other):
    # observability must never change results.
    configs = list(enumerate_design_space())[0:SLICE_STOP]
    for spool_dir, label in ((plain_dir, "untraced"), (traced_dir, "traced")):
        spool = JobSpool.open(spool_dir)
        views = spool.jobs()
        for app in OBS_APPS:
            oracle = np.asarray(sweep_design_space(
                configs, get_profile(app), n_instructions=N_INSTR))
            jid = next(j for j, v in views.items() if v.spec.app == app)
            if views[jid].state != "done":
                _fail(f"obs drill ({label}): {app} not done "
                      f"({views[jid].state})")
            if not np.array_equal(oracle, spool.result(jid)["cycles"]):
                _fail(f"obs drill ({label}): {app} diverged from the serial "
                      "oracle")
    print("service_drill: traced and untraced runs bit-identical to the "
          "oracle")
    report["obs_bit_identical"] = True

    # The kill drill must actually have exercised re-dispatch in the traced
    # run, or the trace-correlation assertions below prove nothing.
    traced_spool = JobSpool.open(traced_dir)
    traced_views = traced_spool.jobs()
    if sum(v.n_expired for v in traced_views.values()) < 1:
        _fail("obs drill: no lease re-dispatched in the traced run")

    # Merge the timeline through the CLI and validate every record.
    timeline_path = out_dir / "BENCH_service_timeline.jsonl"
    metrics_path = out_dir / "BENCH_service_metrics.json"
    p = _cli("obs", "aggregate", "--spool", str(traced_dir),
             "--out", str(timeline_path), "--metrics-out", str(metrics_path))
    if p.returncode != 0:
        _fail(f"obs aggregate rc={p.returncode}: {p.stderr}")
    print(p.stdout, end="")

    # The shard snapshots must merge into one repro-metrics/1 document
    # that counted the drill's completed jobs.
    agg = json.loads(metrics_path.read_text())
    completed = agg.get("metrics", {}).get("service.jobs.completed", {})
    if agg.get("schema") != "repro-metrics/1" or len(agg.get("shards", [])) < 2 \
            or not completed.get("value", 0) > 0:
        _fail(f"aggregated metrics wrong shape: schema={agg.get('schema')!r}, "
              f"shards={agg.get('shards')}, "
              f"service.jobs.completed={completed.get('value')}")
    report["obs_metrics_shards"] = len(agg["shards"])

    records = [json.loads(line)
               for line in timeline_path.read_text().splitlines()]
    for rec in records:
        try:
            validate_record(rec)
        except ValueError as exc:
            _fail(f"merged timeline record invalid: {exc}")

    # Cross-process correlation: every job's records — queue events from
    # the submitting/serving processes AND execute spans from every worker
    # generation that touched it — share the job's single trace id.
    for jid, view in traced_views.items():
        mine = [r for r in records if r.get("trace_id") == jid]
        names = {r["name"] for r in mine}
        for required in ("spool.submit", "spool.lease", "job.execute",
                         "spool.done"):
            if required not in names:
                _fail(f"obs drill: trace {jid[:12]} is missing {required!r} "
                      f"(has {sorted(names)})")
        shards = {r["shard"] for r in mine if r["kind"] == "span"}
        # A SIGKILLed attempt never finishes its execute span (the record is
        # written at span exit), but its claim annotation is flushed up
        # front — so a re-dispatched job must show one claim per attempt,
        # all under the original trace id, plus the resumed attempt's
        # completed execute span.
        if view.n_expired > 0:
            claims = [r for r in mine if r["name"] == "job.claim"]
            if len(claims) < 2:
                _fail(f"obs drill: re-dispatched job {jid[:12]} has fewer "
                      "than 2 claim events — the resumed attempt did not "
                      "adopt the original trace id")
            if not [r for r in mine if r["name"] == "job.execute"]:
                _fail(f"obs drill: re-dispatched job {jid[:12]} has no "
                      "completed execute span")
        print(f"service_drill: trace {jid[:12]}: {len(mine)} record(s), "
              f"worker span(s) from {sorted(shards)}")
    stray = {r.get("trace_id") for r in records
             if r["name"] == "job.execute"} - set(traced_views)
    if stray:
        _fail(f"obs drill: execute spans with unknown trace ids: {stray}")
    report["obs_n_timeline_records"] = len(records)

    # SLO report: non-empty percentiles for all four histograms.
    p = _cli("obs", "report", "--spool", str(traced_dir))
    if p.returncode != 0:
        _fail(f"obs report rc={p.returncode}: {p.stderr}")
    (out_dir / "BENCH_service_obs_report.txt").write_text(p.stdout)
    for metric in ("queue_wait", "lease_to_start", "execute", "e2e"):
        row = next((ln for ln in p.stdout.splitlines()
                    if f" {metric} " in f" {ln} "), None)
        if row is None or " 0 " in f" {row} ":
            _fail(f"obs report: SLO histogram {metric!r} is empty or "
                  f"missing:\n{p.stdout}")
    print("service_drill: obs report has non-empty p50/p95/p99 for all "
          "four SLO histograms")

    # Status file: the final snapshot must be valid repro-status/1 showing
    # the drained service.
    try:
        status = json.loads(status_file.read_text())
    except (OSError, ValueError) as exc:
        _fail(f"status file unreadable: {exc}")
    if status.get("schema") != "repro-status/1" or not status.get("draining"):
        _fail(f"status file wrong shape: {status.get('schema')!r}, "
              f"draining={status.get('draining')!r}")
    if status["queue"]["done"] != len(OBS_APPS):
        _fail(f"status file queue counts wrong: {status['queue']}")
    shutil.copy(status_file, out_dir / "BENCH_service_status.json")
    report["obs_status_ok"] = True
    print("service_drill: status file shows the drained service")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=None,
                        help="artifact directory (default benchmarks/results)")
    args = parser.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else \
        Path(__file__).parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    from repro.service import JobSpool, SpoolConfig

    workdir = Path(tempfile.mkdtemp(prefix="repro-drill-"))
    spool_dir = workdir / "spool"
    report: dict = {"spool": str(spool_dir)}

    # 1. Fill the queue to its bound before any daemon exists.
    JobSpool.ensure(spool_dir, SpoolConfig(max_depth=len(APPS), lease_ttl=2.0))
    jids: list[str] = []
    for app in APPS:
        p = _cli("submit", "--spool", str(spool_dir), "sweep", app,
                 "--stop", str(SLICE_STOP), "--n-instructions", str(N_INSTR))
        if p.returncode != 0:
            _fail(f"submit {app} rc={p.returncode}: {p.stderr}")
        jids.append(p.stdout.strip())
    print(f"service_drill: {len(jids)} jobs spooled")

    # 2. The over-bound submission must shed with the typed exit code.
    p = _cli("submit", "--spool", str(spool_dir), "sweep", "swim",
             "--stop", str(SLICE_STOP), "--n-instructions", str(N_INSTR))
    if p.returncode != 12:
        _fail(f"overload submission: expected exit 12, got {p.returncode} "
              f"(stderr: {p.stderr!r})")
    print(f"service_drill: overload shed with exit 12 ({p.stderr.strip()})")
    report["overload_exit"] = p.returncode

    # 3. Serve with chaos: SIGKILL generation-1 workers mid-sweep.
    t0 = time.monotonic()
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spool", str(spool_dir),
         "--workers", "2", "--max-depth", str(len(APPS)),
         "--lease-ttl", "2", "--heartbeat-timeout", "5",
         "--drain-on-idle", "--max-runtime", "120",
         "--chaos-sigkill-at", str(KILL_AT), "--seed", str(SEED)],
        stderr=subprocess.PIPE, text=True)

    # 3b. While it runs, murder one worker from outside too (operator-style:
    # pid from the heartbeat file). Best-effort — chaos may get there first.
    spool = JobSpool.open(spool_dir)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        beats = spool.heartbeats()
        if beats:
            from repro.robust.chaos import sigkill_process

            victim, beat = sorted(beats.items())[0]
            if sigkill_process(int(beat["pid"])):
                print(f"service_drill: externally SIGKILLed {victim} "
                      f"(pid {beat['pid']})")
                report["external_kill"] = victim
            break
        time.sleep(0.05)

    try:
        rc = serve.wait(timeout=150)
    except subprocess.TimeoutExpired:
        serve.kill()
        _fail("serve did not drain within 150s")
    serve_err = serve.stderr.read() if serve.stderr else ""
    report["serve_exit"] = rc
    report["serve_seconds"] = round(time.monotonic() - t0, 2)
    if rc != 0:
        _fail(f"serve rc={rc}: {serve_err}")
    print(f"service_drill: serve drained cleanly in "
          f"{report['serve_seconds']}s")

    # 4. Every job done; at least one was re-dispatched after a kill.
    p = _cli("jobs", "--spool", str(spool_dir), "--json")
    views = [json.loads(line) for line in p.stdout.splitlines()]
    not_done = [v["id"] for v in views if v["state"] != "done"]
    if not_done:
        _fail(f"jobs not done after drain: {not_done}")
    redispatched = sum(v["n_expired"] for v in views)
    report["n_jobs"] = len(views)
    report["n_redispatched_leases"] = redispatched
    if redispatched < 1:
        _fail("no lease ever expired — the kill drill did not exercise "
              "re-dispatch")
    print(f"service_drill: all {len(views)} jobs done, "
          f"{redispatched} lease(s) re-dispatched after kills")

    # Bit-identity against the serial in-process oracle.
    from repro.simulator import (
        enumerate_design_space,
        get_profile,
        sweep_design_space,
    )

    configs = list(enumerate_design_space())[0:SLICE_STOP]
    for app, jid in zip(APPS, jids):
        oracle = np.asarray(sweep_design_space(
            configs, get_profile(app), n_instructions=N_INSTR))
        got = spool.result(jid)["cycles"]
        if not np.array_equal(oracle, got):
            _fail(f"{app}: service result differs from serial oracle")
    report["bit_identical"] = True
    print("service_drill: results bit-identical to the serial oracle")

    # 5. A job whose deadline already passed must fail with exit 14 —
    # through a live daemon, observed by a blocking client. Ending the
    # daemon with SIGTERM also proves the graceful-drain path.
    serve2 = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spool", str(spool_dir),
         "--workers", "1", "--max-runtime", "60", "--seed", str(SEED)],
        stderr=subprocess.PIPE, text=True)
    try:
        p = _cli("submit", "--spool", str(spool_dir), "sweep", "swim",
                 "--stop", "10", "--n-instructions", str(N_INSTR),
                 "--deadline", "0.000001", "--wait", "--timeout", "30")
        if p.returncode != 14:
            _fail(f"deadline job: expected exit 14, got {p.returncode} "
                  f"(stderr: {p.stderr!r})")
        report["deadline_exit"] = p.returncode
        print("service_drill: expired-deadline job failed with exit 14")
    finally:
        serve2.terminate()
    try:
        rc = serve2.wait(timeout=30)
    except subprocess.TimeoutExpired:
        serve2.kill()
        _fail("serve did not drain on SIGTERM within 30s")
    if rc != 0:
        _fail(f"SIGTERM drain: serve rc={rc}")
    report["sigterm_drain_exit"] = rc
    print("service_drill: SIGTERM drained the daemon cleanly")

    # 6. Observability plane: traced-vs-untraced chaos drill.
    obs_drill(workdir, out_dir, report)

    # Artifacts.
    shutil.copy(spool_dir / "spool.jsonl", out_dir / "BENCH_service_spool.jsonl")
    (out_dir / "BENCH_service_jobs.txt").write_text(
        _cli("jobs", "--spool", str(spool_dir)).stdout)
    (out_dir / "BENCH_service_drill.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"service_drill: artifacts in {out_dir}")
    print("service_drill: OK")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
