"""The ``serve`` workload: a live two-worker service under open-loop load.

A :class:`~repro.service.WorkerSupervisor` runs in its own process (a fresh
interpreter, as ``repro serve`` would be) over a spool in the benchmark's
work directory. The benchmark process is the only client. Two phases:

* **steady** — open-loop Poisson arrivals at :data:`RATE` requests/s for
  ``--seconds`` (at least :data:`MIN_REQUESTS`, so the p95 has ten samples
  beyond it). The catalog is a static hot set of sweep jobs plus a minority
  of LR-B/NN-S ``fit`` jobs: hot keys reuse finished results (reads), cold
  keys execute and write results. Latency is timed from each request's
  planned arrival, so a stalled generator shows up as latency too.
* **burst** — :data:`BURST_JOBS` distinct sweep jobs submitted at once,
  :data:`N_BURSTS` times; the mean time until every job of a burst is
  done, scaled to the reference host (``perfbench/host.py``), is the
  workload's ``wall_s``. The mean, not the median: within a run
  the drains differ by up to a third (the spool's log grows from burst to
  burst, and four processes share two CPUs), and over ten seeds the spread
  (interquartile range over median) of the mean was 0.12 where that of the
  median was 0.16.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import model_builders, run_sampled_dse
from repro.errors import ServiceOverloadError
from repro.loadgen import ServiceTarget, SpecCatalog, WorkloadSpec
from repro.loadgen import build_requests, run_requests
from repro.obs.aggregate import (
    aggregate_metrics,
    read_shard_metrics,
    read_shard_traces,
    read_spool_events,
)
from repro.obs.slo import EXECUTE_SPAN, fold_job_timings
from repro.service import (
    JobSpec,
    JobSpool,
    SpoolConfig,
    poll_jobs,
)
from repro.simulator import design_space_dataset, enumerate_design_space, get_profile
from repro.simulator import sweep_design_space
from repro.util.rng import stream_seed

from perfbench.batch import PassResult
from perfbench.host import SpeedMeter, proc_stat, stop_children
from perfbench.layers import layer_span

WORKERS = 2
MAX_DEPTH = 64
RATE = 25.0
MIN_REQUESTS = 200
N_KEYS = 40
BURST_JOBS = MAX_DEPTH
N_BURSTS = 5
#: Every FIT_EVERY-th catalog key is a fit job instead of a sweep job.
FIT_EVERY = 10
FIT_RATE = 0.01
POLL_S = 0.02
TIMEOUT_S = 60.0
#: Burst drains are timed from spool stamps, so the client polls lazily.
BURST_POLL_S = 0.1
#: Calibration kernels before and after each burst (see ``perfbench/host.py``).
BURST_KERNELS = 12
BOOT_TIMEOUT_S = 60.0


SRC = Path(__file__).resolve().parents[1] / "src"
#: Supervisor process body: serve until SIGTERM drains it. The one
#: argument is the ``ServiceConfig`` fields as JSON.
SERVE_MAIN = ("import json, sys\n"
              "from repro.service import ServiceConfig, WorkerSupervisor\n"
              "sys.exit(WorkerSupervisor(ServiceConfig(**json.loads(sys.argv[1]))).run())")


class Catalog(SpecCatalog):
    """The loadgen sweep catalog with every tenth key turned into a fit job.

    All fit jobs model one app, so after the first the workers' sweep cache
    serves the design space they sample from.
    """

    def spec(self, index: int) -> JobSpec:
        if index % FIT_EVERY != FIT_EVERY - 1:
            return super().spec(index)
        k = index // FIT_EVERY
        return JobSpec(kind="fit", app=self.apps[0], n_instructions=self.n_instructions,
                       model=("LR-B", "NN-S")[k % 2], rate=FIT_RATE, seed=k)


class TimedTarget:
    """Wraps a loadgen target; stamps each request's issue and completion.

    Entry ``i`` belongs to the ``i``-th issued request, which is request
    ``i`` of the stream: the open-loop runner issues in order. Completion
    is stamped at the poll that first reports the request's job terminal.
    """

    def __init__(self, inner: ServiceTarget) -> None:
        self.inner = inner
        self.issued: list[list] = []           # [token, t_issue, t_done]
        self._waiting: dict[str, list[int]] = {}

    def issue(self, spec: JobSpec) -> str:
        entry = [None, time.monotonic(), None]
        self.issued.append(entry)
        with layer_span("service.submit"):
            token = self.inner.issue(spec)
        entry[0] = token
        self._waiting.setdefault(token, []).append(len(self.issued) - 1)
        return token

    def completed(self, tokens: list[str]) -> dict[str, tuple[str, str | None]]:
        with layer_span("service.poll", n=len(tokens)):
            done = self.inner.completed(tokens)
        now = time.monotonic()
        for token in done:
            for i in self._waiting.pop(token, ()):
                self.issued[i][2] = now
        return done


class Clock:
    """``time.monotonic`` that remembers its first reading (the run start)."""

    def __init__(self) -> None:
        self.t0: float | None = None

    def __call__(self) -> float:
        now = time.monotonic()
        if self.t0 is None:
            self.t0 = now
        return now


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of one process, from ``/proc``; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _start_ticks(pid: int) -> int | None:
    fields = proc_stat(pid)
    return int(fields[19]) if fields else None


def _children(pid: int) -> list[tuple[int, int]]:
    """(pid, start time) of every process whose parent is ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        fields = proc_stat(entry) if entry.isdigit() else []
        if fields and int(fields[1]) == pid:
            out.append((int(entry), int(fields[19])))
    return out


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def steady_profile(reqs, latency: list[float], tokens: list[str],
                   timings: dict) -> dict[str, Any]:
    """What the steady phase asked of the service, and whether it kept up.

    Shares of requests that were reads (a repeat of an earlier key), cold
    sweeps and fit jobs (first requests of a key, which execute and write),
    the jobs in flight over the phase, and the latency p95 of each half of
    the requests: under capacity, in-flight stays bounded and the second
    half is no slower than the first.
    """
    seen: set[str] = set()
    kinds = {"read": 0, "cold_sweep": 0, "fit": 0}
    for req in reqs:
        kinds["read" if req.key in seen else
              "fit" if req.spec.kind == "fit" else "cold_sweep"] += 1
        seen.add(req.key)
    steps = sorted([(jt.submit_t, 1) for jt in map(timings.get, set(tokens))] +
                   [(jt.terminal_t, -1) for jt in map(timings.get, set(tokens))
                    if jt.terminal_t is not None])
    depth = np.cumsum([d for _, d in steps])
    half = len(latency) // 2
    return {"share": {k: n / len(reqs) for k, n in kinds.items()},
            "in_flight_max": int(depth.max()),
            "in_flight_max_by_quarter": [int(q.max()) for q in np.array_split(depth, 4)],
            "latency_p95_s_by_half": [_quantile(latency[:half], 0.95),
                                      _quantile(latency[half:], 0.95)]}


class Serve:
    """Live service: steady open-loop phase, then the burst drains."""

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.seed = seed
        self.n_requests = max(MIN_REQUESTS, round(RATE * seconds))
        self.work_dir = work_dir
        self.process: subprocess.Popen | None = None
        self.workers: list[tuple[int, int]] = []

    # -- set-up and teardown -------------------------------------------------

    def setup(self, traced: bool) -> None:
        """Boot the supervisor and wait for both workers' first heartbeat."""
        self.traced = traced
        self.root = Path(tempfile.mkdtemp(prefix="spool-", dir=self.work_dir))
        self.spool = JobSpool.ensure(self.root, SpoolConfig(max_depth=MAX_DEPTH))
        config = {"root": str(self.root), "workers": WORKERS, "max_depth": MAX_DEPTH,
                  "seed": self.seed, "obs": traced}
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        self.process = subprocess.Popen(
            [sys.executable, "-c", SERVE_MAIN, json.dumps(config)], env=env)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while len(self.spool.heartbeats()) < WORKERS:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("service did not boot: no heartbeat from "
                                   f"{WORKERS} workers")
            time.sleep(0.01)
        self.supervisor = (self.process.pid, _start_ticks(self.process.pid))
        self.workers = _children(self.process.pid)

    def close(self) -> None:
        """Drain the service (SIGTERM), reap it, and remove the spool.

        A supervisor that has not drained within 30 s is killed, and so is
        any worker that outlived it: the benchmark adopts orphans
        (``host.adopt_orphans``), so those are its children then.
        The spool-derived layer metrics are folded here, once every worker
        has exited and flushed its trace and counters.
        """
        p = self.process
        if p is None:
            return
        if p.poll() is None:
            p.terminate()
            with contextlib.suppress(subprocess.TimeoutExpired):
                p.wait(30.0)
        self.process = None
        stop_children()
        self.closing_metrics = {**self._spool_layers(), **self._shard_metrics()}
        shutil.rmtree(self.root, ignore_errors=True)

    @contextlib.contextmanager
    def paused(self):
        """Stop the supervisor and its workers (SIGSTOP) for the block.

        The host is calibrated between bursts; idle workers and the
        supervisor still poll and heartbeat, and the kernel would time that
        work of the program along with the host. The start time guards
        against signalling a recycled pid.
        """
        stopped = []
        try:
            for pid, started in [self.supervisor] + self.workers:
                if _start_ticks(pid) == started:
                    os.kill(pid, signal.SIGSTOP)
                    stopped.append(pid)
            yield
        finally:
            for pid in stopped:
                os.kill(pid, signal.SIGCONT)

    # -- the timed pass ------------------------------------------------------

    def requests(self):
        wl = WorkloadSpec(workload="static", pacing="open",
                          n_requests=self.n_requests, n_keys=N_KEYS,
                          seed=self.seed, rate=RATE)
        return build_requests(wl, Catalog())

    def burst_specs(self) -> list[list[JobSpec]]:
        """:data:`N_BURSTS` bursts of sweep slices, all distinct across
        bursts too, so no burst job is a dedup of an earlier one; the
        instruction count keeps them apart from every steady-phase job."""
        rng = np.random.default_rng(stream_seed(self.seed, "burst"))
        starts = rng.choice(4608 - 8, N_BURSTS * BURST_JOBS, replace=False)
        apps = SpecCatalog().apps
        specs = [JobSpec(kind="sweep", app=apps[i % len(apps)], start=int(s),
                         stop=int(s) + 8, n_instructions=2_000_000)
                 for i, s in enumerate(starts)]
        return [specs[b * BURST_JOBS:(b + 1) * BURST_JOBS] for b in range(N_BURSTS)]

    def run(self) -> PassResult:
        reqs = self.requests()
        target, clock = TimedTarget(ServiceTarget(str(self.root))), Clock()
        with layer_span("loadgen.steady", n_requests=len(reqs)):
            load = run_requests(reqs, target, poll=POLL_S, timeout_s=TIMEOUT_S,
                                clock=clock)
        counts = load.counts()
        # One sample per request, timed from its due time. A request that
        # did not finish done (failed, shed, timed out) counts as taking
        # the whole timeout: it missed any latency limit.
        latency, lag = [], []
        for req, out, (_, t_issue, t_done) in zip(reqs, load.outcomes, target.issued):
            due = clock.t0 + req.t_offset
            lag.append(t_issue - due)
            latency.append(t_done - due if out.outcome == "done" else TIMEOUT_S)

        meter = SpeedMeter(enabled=not self.traced, kernels_per_lap=BURST_KERNELS,
                           quiet=self.paused, all_cpus=True)
        bursts, burst_failed, burst_begun = [], 0, []
        for specs in self.burst_specs():
            burst_begun.append(time.time())
            with layer_span("loadgen.burst", n_jobs=len(specs)):
                ids = []
                for spec in specs:
                    with layer_span("service.submit"):
                        try:
                            ids.append(self.spool.submit(spec))
                        except ServiceOverloadError:
                            burst_failed += 1
                while True:
                    with layer_span("service.poll", n=len(ids)):
                        views = poll_jobs(self.spool, ids)
                    if all(v.state in ("done", "failed") for v in views.values()):
                        break
                    time.sleep(BURST_POLL_S)
            burst_failed += sum(v.state == "failed" for v in views.values())
            bursts.append(ids)
            meter.lap()
        # Drain time from the spool's own event stamps: first submit to last
        # completion, independent of how often this client polls.
        timings = fold_job_timings(read_spool_events(self.root)[0])
        drains = [max(timings[j].terminal_t for j in ids) -
                  min(timings[j].submit_t for j in ids) for ids in bursts if ids]
        self.run_problems = [
            f"serve: burst {b} job {j[:12]} was submitted before the burst began"
            for b, (ids, begun) in enumerate(zip(bursts, burst_begun))
            for j in ids if timings[j].submit_t < begun]
        burst_ids = [j for ids in bursts for j in ids]

        rss = _vm_hwm_mb(os.getpid()) + _vm_hwm_mb(self.process.pid) + \
            sum(_vm_hwm_mb(pid) for pid, _ in self.workers)
        jobs = self.spool.jobs()
        steady_ids = [token for token, _, _ in target.issued if token]
        job_ids = sorted(set(steady_ids) | set(burst_ids))
        outputs = {jid: self._canonical(self.spool.result(jid))
                   for jid in job_ids if jobs[jid].state == "done"}
        self.specs = {jid: jobs[jid].spec for jid in job_ids}
        degraded = sum(1 for token in steady_ids if outputs.get(token, {}).get("degraded"))
        n_failed = (counts["failed"] + counts["shed"] + counts["timeout"] + degraded
                    + burst_failed)
        attempted = len(reqs) + N_BURSTS * BURST_JOBS
        leases = [jobs[jid].n_leases for jid in job_ids]
        drain_s = statistics.fmean(drains)
        return PassResult(
            outputs=outputs,
            attempted=attempted,
            failed=n_failed,
            wall_s=statistics.fmean(meter.scaled(drains)),
            raw_s=drain_s,
            laps_s=meter.laps,
            kernel_s=meter.points,
            peak_rss_mb=rss,
            metrics={
                "latency_p50_s": _quantile(latency, 0.50),
                "latency_p95_s": _quantile(latency, 0.95),
                "loadgen.lag_p95_s": _quantile(lag, 0.95),
                "drain_jobs_per_s": BURST_JOBS / drain_s,
                "fail_frac": n_failed / attempted,
                "service.dedup_ratio":
                    1.0 - len(job_ids) / (len(steady_ids) + len(burst_ids)),
                "service.redispatch_ratio":
                    sum(n - 1 for n in leases if n > 1) / max(1, sum(leases)),
            },
            notes={"drains_s": drains,
                   "steady": steady_profile(reqs, latency, steady_ids, timings)})

    @staticmethod
    def _canonical(result: Any) -> Any:
        return {k: tuple(float(x) for x in v) if isinstance(v, np.ndarray) else v
                for k, v in sorted(result.items())}

    def _spool_layers(self) -> dict[str, float]:
        """Queue wait, lease-to-start and execute quantiles from raw samples.

        Folded with :func:`repro.obs.slo.fold_job_timings` from the spool's
        event log and the worker trace files (written only when the service
        runs with ``obs``), without the SLO histograms' fixed buckets.
        """
        events, _ = read_spool_events(self.root)
        timings = fold_job_timings(events)
        waits = [min(jt.lease_ts) - jt.submit_t for jt in timings.values()
                 if jt.submit_t is not None and jt.lease_ts]
        by_trace = {jt.trace_id: jt for jt in timings.values()}
        spans, _ = read_shard_traces(self.root)
        execute, lease_to_start = [], []
        for rec in spans:
            if rec.get("kind") != "span" or rec.get("name") != EXECUTE_SPAN:
                continue
            execute.append(float(rec["duration_s"]))
            jt = by_trace.get(rec.get("trace_id"))
            prior = [t for t in (jt.lease_ts if jt else []) if t <= rec["t_wall"]]
            if prior:
                lease_to_start.append(max(0.0, rec["t_wall"] - max(prior)))
        self.shard_spans = spans
        return {
            "service.queue_wait_p50_s": _quantile(waits, 0.50),
            "service.queue_wait_p95_s": _quantile(waits, 0.95),
            "service.lease_to_start_p50_s": _quantile(lease_to_start, 0.50),
            "service.execute_p50_s": _quantile(execute, 0.50),
            "service.execute_p95_s": _quantile(execute, 0.95),
        }

    def _shard_metrics(self) -> dict[str, float]:
        """Result-cache hit ratio summed over the worker shards' counters."""
        snaps, _ = read_shard_metrics(self.root)
        merged = aggregate_metrics(snaps)["metrics"]

        def count(name: str) -> float:
            return merged.get(name, {}).get("value", 0)

        hits = count("cache.memory.hits") + count("cache.disk.hits")
        lookups = hits + count("cache.misses")
        return {"cache.hit_ratio": hits / lookups if lookups else 0.0}

    # -- output checks -------------------------------------------------------

    def check(self, result: PassResult) -> list[str]:
        """Every job that finished ``done`` equals the in-process result.

        The reference is what :class:`repro.loadgen.LibraryTarget` computes
        for a sweep job (the library sweep of the job's slice), taken from
        one batch sweep of the whole space per app, and what a worker
        computes for a fit job, run in this process.
        """
        problems = []
        configs = list(enumerate_design_space())
        sweeps: dict[tuple[str, int], np.ndarray] = {}
        for jid, got in result.outputs.items():
            spec = self.specs[jid]
            if spec.kind == "sweep":
                key = (spec.app, spec.n_instructions)
                if key not in sweeps:
                    sweeps[key] = sweep_design_space(configs, get_profile(spec.app),
                                                     n_instructions=spec.n_instructions)
                want = {"app": spec.app, "start": spec.start, "stop": spec.stop,
                        "kind": "sweep", "cycles": sweeps[key][spec.start:spec.stop]}
            else:
                want = _fit_reference(spec, configs)
            if self._canonical(want) != got:
                problems.append(f"serve: job {jid[:12]} ({spec.summary()}) result "
                                "differs from the in-process library result")
        if not result.outputs:
            problems.append("serve: no job finished")
        return problems + self.run_problems


def _fit_reference(spec: JobSpec, configs) -> dict[str, Any]:
    """A fit job's result computed in process, as a worker computes it."""
    space = design_space_dataset(configs, sweep_design_space(
        configs, get_profile(spec.app), n_instructions=spec.n_instructions, cache=True))
    res = run_sampled_dse(space, model_builders((spec.model,), seed=spec.seed),
                          spec.rate, np.random.default_rng(spec.seed))
    outcome = res.outcomes[spec.model]
    return {"kind": "fit", "app": spec.app, "model": spec.model, "rate": res.rate,
            "n_sampled": res.n_sampled,
            "estimated_error_max": outcome.estimated_error_max,
            "true_error": outcome.true_error,
            "deployed": outcome.deployed or spec.model, "degraded": outcome.degraded}
