"""Disk-chaos drill: compact under live traffic on a faulty disk, lose nothing.

End-to-end exercise of the crash-consistent compaction + disk-fault
hardening (DESIGN §15), gating on the PR's pin: for every injected crash
point in the compaction swap and under every injected disk fault during a
live workload, the reopened spool folds to the same terminal job set and
bit-identical job results as an uncompacted, fault-free oracle.

1. **Fault-free oracle** — a pristine spool drains the workload with no
   compaction and no faults; its per-job results (canonical JSON) are the
   oracle every later phase must reproduce exactly.
2. **Compaction mid-traffic** — a fresh spool drains the same workload
   while ``compact()`` runs between worker iterations (snapshot
   generations advance while jobs are claimed, running, and completing).
   Gate: identical terminal set, bit-identical results, generation > 0.
3. **Crash matrix** — for each named crash point inside the swap protocol
   (``pre-snapshot-rename``, ``post-snapshot-rename``, ``post-log-swap``)
   the compactor "dies" there (:class:`~repro.robust.diskchaos.SimulatedCrash`)
   mid-workload; the reopened spool must fold to the same state, keep
   serving, and still converge to the oracle.
4. **Seeded fault window** — a :class:`~repro.robust.diskchaos.DiskFaultInjector`
   makes writes/fsyncs/renames fail probabilistically while workers drain
   and the compactor keeps compacting. Every failure must surface typed
   (:class:`~repro.errors.ServiceError` shed, breaker read-only mode) —
   any other exception fails the drill — and once the disk heals the spool
   must drain to the oracle with zero lost and zero duplicated jobs.
5. **fsck gate** — ``repro spool verify --expect-jobs`` runs as a
   subprocess against the post-drill spool and must exit 0; its report,
   the final snapshot, and the drill report are the CI artifacts.

Artifacts (``BENCH_diskchaos.json``, ``BENCH_diskchaos_verify.json``,
``BENCH_diskchaos_spoolsnap.json``) land in ``benchmarks/results/``.

Run::

    PYTHONPATH=src python benchmarks/disk_chaos_drill.py [--out-dir PATH]

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

APPS = ("gcc", "mcf", "gzip", "art", "swim")
SLICE_STOP = 12
N_INSTR = 1_000_000
SEED = 11
DRAIN_DEADLINE_S = 120.0


def _fail(msg: str) -> None:
    print(f"disk_chaos_drill: FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def _specs():
    from repro.service import JobSpec

    return [JobSpec(kind="sweep", app=app, start=0, stop=SLICE_STOP,
                    n_instructions=N_INSTR) for app in APPS]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, default=str)


def _terminal_map(spool) -> dict[str, str]:
    return {jid: v.state for jid, v in spool.jobs().items()
            if v.state in ("done", "failed")}


def _drain(spool, worker_name: str, *, compact_every: int = 0,
           tolerate_typed: bool = False) -> int:
    """Run an in-process worker until the queue is drained.

    ``compact_every`` > 0 compacts between iterations — live traffic over
    an advancing snapshot generation. ``tolerate_typed`` allows typed
    service errors (shed, read-only mode) and compaction failures, which
    is the phase-4 contract: degrade, retry, never crash, never wedge.
    """
    from repro.errors import ServiceError
    from repro.service import Worker, WorkerConfig
    from repro.service.compaction import CompactionPolicy, compact

    w = Worker(WorkerConfig(root=str(spool.root), name=worker_name),
               spool=spool)
    deadline = time.monotonic() + DRAIN_DEADLINE_S
    n_compactions = 0
    i = 0
    while time.monotonic() < deadline:
        pending = [v for v in spool.jobs().values()
                   if v.state in ("pending", "running")]
        if not pending:
            return n_compactions
        try:
            w.run_once()
        except ServiceError:
            if not tolerate_typed:
                raise
            time.sleep(0.05)
        i += 1
        if compact_every and i % compact_every == 0:
            try:
                compact(spool, CompactionPolicy())
                n_compactions += 1
            except (ServiceError, OSError):
                if not tolerate_typed:
                    raise
        time.sleep(0.01)  # leases from failed completes must get to expire
    _fail(f"{worker_name}: queue did not drain within {DRAIN_DEADLINE_S:g}s")
    return n_compactions


def _check_against_oracle(spool, oracle_results: dict[str, str],
                          phase: str) -> None:
    terminal = _terminal_map(spool)
    lost = sorted(set(oracle_results) - set(terminal))
    extra = sorted(set(terminal) - set(oracle_results))
    if lost or extra:
        _fail(f"{phase}: terminal set diverged — lost {lost}, extra {extra}")
    not_done = [j for j, s in terminal.items() if s != "done"]
    if not_done:
        _fail(f"{phase}: jobs not done: {[j[:12] for j in not_done]}")
    for jid, want in oracle_results.items():
        got = _canonical(spool.result(jid))
        if got != want:
            _fail(f"{phase}: job {jid[:12]} result differs from the "
                  "fault-free uncompacted oracle")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=None,
                        help="artifact directory (default benchmarks/results)")
    args = parser.parse_args()
    out_dir = Path(args.out_dir) if args.out_dir else \
        Path(__file__).parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    from repro.robust import DiskFaultInjector, SimulatedCrash, diskchaos
    from repro.service import JobSpool, SpoolConfig
    from repro.service.compaction import (
        CRASH_POINTS,
        CompactionPolicy,
        compact,
        verify_spool,
    )

    workdir = Path(tempfile.mkdtemp(prefix="repro-diskchaos-"))
    report: dict = {"seed": SEED, "apps": list(APPS)}
    config = SpoolConfig(max_depth=len(APPS) + 2, lease_ttl=0.3)

    # 1. Fault-free, uncompacted oracle.
    oracle_spool = JobSpool.ensure(workdir / "oracle", config)
    jids = [oracle_spool.submit(s) for s in _specs()]
    _drain(oracle_spool, "oracle-w")
    oracle_terminal = _terminal_map(oracle_spool)
    if sorted(oracle_terminal) != sorted(jids) or \
            set(oracle_terminal.values()) != {"done"}:
        _fail(f"oracle run did not complete every job: {oracle_terminal}")
    oracle_results = {jid: _canonical(oracle_spool.result(jid))
                      for jid in jids}
    report["n_jobs"] = len(jids)
    print(f"disk_chaos_drill: oracle drained {len(jids)} jobs fault-free")

    # 2. Compaction running against live traffic.
    live_spool = JobSpool.ensure(workdir / "live", config)
    for s in _specs():
        live_spool.submit(s)
    n_compactions = _drain(live_spool, "live-w", compact_every=2)
    stats = compact(live_spool)  # one terminal fold over the finished state
    _check_against_oracle(live_spool, oracle_results, "mid-traffic compaction")
    report["mid_traffic_compactions"] = n_compactions + 1
    report["mid_traffic_generation"] = stats.generation
    if stats.generation < 2:
        _fail("mid-traffic phase never compacted while jobs were in flight")
    print(f"disk_chaos_drill: {stats.generation} generation(s) of compaction "
          "under live traffic, results bit-identical to the oracle")

    # 3. Crash matrix: die at every named point in the swap protocol.
    for point in CRASH_POINTS:
        crash_spool = JobSpool.ensure(workdir / f"crash-{point}", config)
        for s in _specs():
            crash_spool.submit(s)
        # Make progress first so the fold is non-trivial at crash time.
        from repro.service import Worker, WorkerConfig

        w = Worker(WorkerConfig(root=str(crash_spool.root), name="crash-w"),
                   spool=crash_spool)
        w.run_once()
        try:
            compact(crash_spool, crash_at=point)
        except SimulatedCrash:
            pass
        else:
            _fail(f"crash point {point!r} did not crash")
        survivor = JobSpool.open(crash_spool.root)
        verdict = verify_spool(survivor.root)
        if not verdict["ok"]:
            _fail(f"crash at {point}: verify failed: "
                  f"{[c for c in verdict['checks'] if not c['passed']]}")
        _drain(survivor, "survivor-w")
        compact(survivor)
        _check_against_oracle(survivor, oracle_results, f"crash at {point}")
        print(f"disk_chaos_drill: crash at {point}: recovered, drained, "
              "bit-identical")
    report["crash_points"] = list(CRASH_POINTS)

    # 4. Seeded fault window: sick disk under live traffic + compaction.
    chaos_spool = JobSpool.ensure(workdir / "chaos", config)
    for s in _specs():
        chaos_spool.submit(s)
    injector = DiskFaultInjector(seed=SEED, p_enospc=0.02, p_eio_write=0.02,
                                 p_short_write=0.08, p_eio_fsync=0.03,
                                 p_rename=0.03)
    from repro.obs.metrics import default_registry

    sheds = default_registry().counter("service.worker.spool_sheds")
    sheds_before = sheds.value
    t0 = time.monotonic()
    with diskchaos.injected(injector):
        window_end = time.monotonic() + 6.0
        from repro.errors import ServiceError
        from repro.service import Worker, WorkerConfig

        w = Worker(WorkerConfig(root=str(chaos_spool.root), name="chaos-w"),
                   spool=chaos_spool)
        i = 0
        while time.monotonic() < window_end:
            try:
                w.run_once()
            except ServiceError:
                time.sleep(0.05)
            except OSError as exc:
                _fail(f"fault window: untyped OSError escaped: {exc}")
            i += 1
            if i % 3 == 0:
                try:
                    compact(chaos_spool, CompactionPolicy())
                except (ServiceError, OSError):
                    pass  # typed degradation; next pass retries
            time.sleep(0.01)
            if not any(v.state in ("pending", "running")
                       for v in chaos_spool.jobs().values()):
                break
    window_sheds = int(sheds.value - sheds_before)
    report["fault_window_calls"] = dict(injector.calls)
    report["fault_window_fired"] = dict(injector.fired)
    if not injector.fired:
        _fail("fault window injected no faults — the drill proved nothing")
    # Disk healed: drain whatever the faults left behind and fold it down.
    _drain(chaos_spool, "heal-w", compact_every=4, tolerate_typed=True)
    final_stats = compact(chaos_spool)
    _check_against_oracle(chaos_spool, oracle_results, "fault window")
    report["fault_window_seconds"] = round(time.monotonic() - t0, 2)
    report["final_generation"] = final_stats.generation
    report["worker_sheds"] = window_sheds
    print(f"disk_chaos_drill: fault window fired {injector.fired}; healed "
          "spool drained to bit-identical results "
          f"({report['worker_sheds']} typed shed(s))")

    # 5. fsck gate through the CLI, against the expected-jobs oracle.
    expect_path = workdir / "expect.json"
    expect_path.write_text(json.dumps(oracle_terminal, sort_keys=True))
    verify_out = out_dir / "BENCH_diskchaos_verify.json"
    p = subprocess.run(
        [sys.executable, "-m", "repro", "spool", "verify",
         "--spool", str(chaos_spool.root),
         "--expect-jobs", str(expect_path), "--out", str(verify_out)],
        capture_output=True, text=True)
    print(p.stdout, end="")
    if p.returncode != 0:
        _fail(f"repro spool verify rc={p.returncode}:\n{p.stdout}{p.stderr}")
    report["verify_exit"] = p.returncode

    # Artifacts.
    shutil.copy(chaos_spool.snapshot_path,
                out_dir / "BENCH_diskchaos_spoolsnap.json")
    (out_dir / "BENCH_diskchaos.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"disk_chaos_drill: artifacts in {out_dir}")
    print("disk_chaos_drill: OK")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
