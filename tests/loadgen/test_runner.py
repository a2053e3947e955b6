"""The load runner against the deterministic sim and a service spool."""

from __future__ import annotations

import pytest

from repro.loadgen import (
    ServiceTarget,
    SpecCatalog,
    WorkloadSpec,
    build_requests,
    run_requests,
)
from repro.loadgen.workloads import Request
from repro.service import SpoolConfig, JobSpool, drain_queue

from .fakes import SimTarget, VirtualClock


def _sim_pair(**kwargs):
    clock = VirtualClock()
    return SimTarget(clock=clock, **kwargs), clock


def _distinct_requests(n, n_instructions=1_000_000):
    """n requests over n distinct keys — no dedup, clean window math."""
    catalog = SpecCatalog(n_instructions=n_instructions)
    return [Request(i=i, key=catalog.key(i), t_offset=0.0,
                    spec=catalog.spec(i)) for i in range(n)]


class TestSimRuns:
    def test_every_request_gets_exactly_one_outcome(self):
        target, clock = _sim_pair(seed=1)
        wl = WorkloadSpec(workload="static", n_requests=40, n_keys=10, seed=1)
        result = run_requests(build_requests(wl), target,
                              clock=clock, sleep=clock.sleep)
        assert len(result.outcomes) == 40
        assert sorted(o.i for o in result.outcomes) == list(range(40))
        assert result.counts()["done"] == 40

    def test_runs_are_deterministic_under_virtual_time(self):
        wl = WorkloadSpec(workload="oscillating", pacing="open",
                          n_requests=30, n_keys=8, seed=3, rate=60.0)

        def once():
            target, clock = _sim_pair(seed=7, fail_every=5)
            return run_requests(build_requests(wl), target,
                                clock=clock, sleep=clock.sleep)

        a, b = once(), once()
        assert a.outcomes == b.outcomes
        assert a.wall_s == b.wall_s

    def test_failed_jobs_become_failed_outcomes(self):
        target, clock = _sim_pair(seed=2, fail_every=3)
        result = run_requests(_distinct_requests(9), target,
                              clock=clock, sleep=clock.sleep)
        counts = result.counts()
        assert counts["failed"] == 3
        assert all(o.error_type == "InjectedFault"
                   for o in result.outcomes if o.outcome == "failed")

    def test_latencies_match_the_sim_service_times(self):
        target, clock = _sim_pair(seed=4)
        requests = _distinct_requests(5)
        result = run_requests(requests, target,
                              clock=clock, sleep=clock.sleep, poll=0.001)
        for outcome in result.outcomes:
            assert outcome.outcome == "done"
            expected = target.service_time(requests[outcome.i].spec)
            # Completion is observed on the poll after it happens.
            assert expected <= outcome.latency <= expected + 0.01


class TestPacing:
    def test_open_loop_overlaps_beyond_any_window(self):
        target, clock = _sim_pair(seed=5)
        result = run_requests(_distinct_requests(20), target,
                              clock=clock, sleep=clock.sleep)
        assert result.counts()["done"] == 20
        assert target.max_in_flight > 3

    def test_open_loop_honours_planned_offsets(self):
        target, clock = _sim_pair(seed=6, base_latency=0.001, jitter=0.0)
        catalog = SpecCatalog()
        requests = [Request(i=i, key=catalog.key(i), t_offset=i * 1.0,
                            spec=catalog.spec(i)) for i in range(4)]
        result = run_requests(requests, target, clock=clock,
                              sleep=clock.sleep, poll=0.05)
        for outcome in result.outcomes:
            assert outcome.t_issue >= outcome.i * 1.0
        assert result.wall_s >= 3.0

    def test_bad_arguments_rejected(self):
        target, clock = _sim_pair()
        with pytest.raises(ValueError):
            run_requests([], target, timeout_s=0.0)


class TestShedAndTimeout:
    def test_shed_requests_are_recorded_not_raised(self):
        target, clock = _sim_pair(seed=7, max_in_flight_allowed=2,
                                  base_latency=5.0, jitter=0.0)
        result = run_requests(_distinct_requests(6), target,
                              clock=clock, sleep=clock.sleep, timeout_s=30.0)
        counts = result.counts()
        assert counts["shed"] == 4 and counts["done"] == 2
        shed = [o for o in result.outcomes if o.outcome == "shed"]
        assert all(o.error_type == "ServiceOverloadError" and o.token is None
                   and o.latency is None for o in shed)

    def test_quiet_tokens_time_out_instead_of_hanging(self):
        target, clock = _sim_pair(seed=8, base_latency=100.0, jitter=0.0)
        result = run_requests(_distinct_requests(3), target,
                              clock=clock, sleep=clock.sleep,
                              timeout_s=2.0, poll=0.5)
        assert result.counts()["timeout"] == 3
        assert all(o.latency >= 2.0 for o in result.outcomes)
        assert result.wall_s < 100.0

    def test_dedup_shares_one_completion_across_requests(self):
        target, clock = _sim_pair(seed=9)
        catalog = SpecCatalog()
        requests = [Request(i=i, key=catalog.key(0), t_offset=0.0,
                            spec=catalog.spec(0)) for i in range(5)]
        result = run_requests(requests, target, clock=clock,
                              sleep=clock.sleep)
        assert result.counts()["done"] == 5
        assert target.n_issued == 1 and target.n_deduped == 4


class TestServiceTarget:
    def test_run_completes_against_an_inline_drained_spool(self, tmp_path):
        root = str(tmp_path / "spool")
        target = ServiceTarget(root)
        wl = WorkloadSpec(workload="static", n_requests=8, n_keys=3, seed=2,
                          rate=1000.0)
        requests = build_requests(wl, SpecCatalog(n_instructions=50_000))
        # Interleave the runner with an inline worker: issue the first
        # requests and drain them, then let the runner observe completions
        # while every sleep drains whatever it issued since.
        for req in requests[:4]:
            target.issue(req.spec)
        drain_queue(target.spool)
        result = run_requests(requests, target, timeout_s=30.0,
                              poll=0.01,
                              sleep=lambda s: drain_queue(target.spool))
        assert result.counts()["done"] == 8
        assert result.counts()["shed"] == 0

    def test_overload_sheds_into_outcomes(self, tmp_path):
        root = tmp_path / "spool"
        JobSpool.ensure(root, SpoolConfig(max_depth=2))
        target = ServiceTarget(str(root))
        requests = _distinct_requests(5, n_instructions=50_000)
        result = run_requests(requests, target,
                              timeout_s=1.0, poll=0.2)
        counts = result.counts()
        assert counts["shed"] == 3
        # Nothing drains the spool, so admitted jobs time out.
        assert counts["timeout"] == 2
