"""Golden regression pin for the load-replay path.

A small checked-in ``repro-reqtrace/1`` fixture is replayed through the
real runner against the deterministic sim target under virtual time, and
the result is compared field-for-field against a checked-in report: the
request ordering, every per-request outcome (including the injected
failures), and the derived client-observed SLO snapshot. Any change to
the trace reader, the runner's pacing/completion loop, the sim model, or
the report fold that moves a number shows up here as a reviewable diff.

When a change is intended, regenerate both artifacts with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit ``golden_reqtrace.jsonl`` + ``golden_load_report.json``
alongside the code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.loadgen import (
    SimTarget,
    VirtualClock,
    WorkloadSpec,
    build_report,
    build_requests,
    read_reqtrace,
    render_report,
    run_requests,
    write_reqtrace,
)

TRACE_PATH = Path(__file__).parent / "golden_reqtrace.jsonl"
REPORT_PATH = Path(__file__).parent / "golden_load_report.json"

#: The pinned scenario. Changing any of these invalidates both artifacts.
WORKLOAD = WorkloadSpec(workload="phase_shift", pacing="open", n_requests=24,
                        n_keys=8, seed=20260808, rate=25.0, n_phases=4)
SIM_SEED = 17
FAIL_EVERY = 7
POLL = 0.01
TIMEOUT_S = 30.0


def _replay(requests):
    clock = VirtualClock()
    target = SimTarget(clock=clock, seed=SIM_SEED, fail_every=FAIL_EVERY)
    return run_requests(requests, target, concurrency=None,
                        timeout_s=TIMEOUT_S, poll=POLL,
                        clock=clock, sleep=clock.sleep)


def _document(result) -> dict:
    doc = build_report(result, workload=WORKLOAD, source="replay")
    doc["per_request"] = [
        {"i": o.i, "key": o.key, "outcome": o.outcome,
         "error_type": o.error_type, "t_issue": o.t_issue,
         "latency": o.latency}
        for o in result.outcomes
    ]
    return doc


@pytest.fixture(scope="module")
def trace_requests(request):
    if request.config.getoption("--update-golden"):
        write_reqtrace(TRACE_PATH, build_requests(WORKLOAD),
                       workload=WORKLOAD)
    if not TRACE_PATH.exists():
        pytest.fail(f"golden trace {TRACE_PATH} missing; generate it with "
                    "`pytest tests/golden --update-golden`")
    requests, header, malformed = read_reqtrace(TRACE_PATH)
    assert malformed == 0
    return requests, header


@pytest.fixture(scope="module")
def actual(trace_requests, request):
    requests, _ = trace_requests
    doc = _document(_replay(requests))
    if request.config.getoption("--update-golden"):
        REPORT_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


@pytest.fixture(scope="module")
def golden(actual):
    # Depends on ``actual`` so an --update-golden run writes the file
    # before any comparison tries to read it.
    if not REPORT_PATH.exists():
        pytest.fail(f"golden report {REPORT_PATH} missing; generate it with "
                    "`pytest tests/golden --update-golden`")
    return json.loads(REPORT_PATH.read_text())


class TestGoldenLoadReplay:
    def test_trace_matches_golden_provenance(self, trace_requests):
        _, header = trace_requests
        assert WorkloadSpec.from_dict(header["workload"]) == WORKLOAD, (
            "the golden trace was generated for a different workload; "
            "rerun with --update-golden")

    def test_trace_regenerates_bit_identically(self, tmp_path):
        # The checked-in trace IS what the generator emits for WORKLOAD —
        # the byte-level determinism contract of repro-reqtrace/1.
        fresh = write_reqtrace(tmp_path / "fresh.jsonl",
                               build_requests(WORKLOAD), workload=WORKLOAD)
        assert fresh.read_bytes() == TRACE_PATH.read_bytes()

    def test_request_ordering_pinned(self, actual, golden):
        assert [r["i"] for r in actual["per_request"]] == \
            [r["i"] for r in golden["per_request"]]
        assert [r["key"] for r in actual["per_request"]] == \
            [r["key"] for r in golden["per_request"]]

    def test_per_request_outcomes_pinned(self, actual, golden):
        assert actual["per_request"] == golden["per_request"]

    def test_outcome_counts_pinned(self, actual, golden):
        assert actual["outcomes"] == golden["outcomes"]
        assert actual["errors"] == golden["errors"]

    def test_slo_snapshot_pinned(self, actual, golden):
        assert actual["latency"] == golden["latency"]
        assert actual["wall_s"] == pytest.approx(golden["wall_s"], rel=1e-9)
        assert actual["throughput_rps"] == pytest.approx(
            golden["throughput_rps"], rel=1e-9)

    def test_replay_is_deterministic(self, actual, trace_requests):
        requests, _ = trace_requests
        assert _document(_replay(requests)) == actual

    def test_replay_does_not_depend_on_the_simulator_code_version(
            self, actual, trace_requests, monkeypatch):
        # Editing a simulator source changes code_version() and so every
        # job_id; the sim target's service times must not follow it.
        import repro.cache.fingerprint as fingerprint
        import repro.service.jobs as jobs

        requests, _ = trace_requests
        before = jobs.job_id(requests[0].spec)
        monkeypatch.setattr(fingerprint, "code_version", lambda: "another-version")
        monkeypatch.setattr(jobs, "code_version", fingerprint.code_version)
        assert jobs.job_id(requests[0].spec) != before
        assert _document(_replay(requests)) == actual

    def test_report_renders(self, actual):
        text = render_report(actual, title="golden replay")
        assert text.startswith("golden replay")
        assert "client-observed latency" in text
