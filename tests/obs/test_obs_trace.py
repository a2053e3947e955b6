"""Span tracing: record schema, nesting, error capture, no-op fast path."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TRACE_SCHEMA, Tracer, validate_record


def _records(stream: io.StringIO) -> list[dict]:
    return [validate_record(json.loads(line))
            for line in stream.getvalue().splitlines() if line.strip()]


def _valid_record(**overrides) -> dict:
    rec = {
        "schema": TRACE_SCHEMA,
        "kind": "span",
        "span_id": 1,
        "parent_id": None,
        "name": "train",
        "t_wall": 1000.0,
        "t_start": 0.5,
        "duration_s": 0.25,
        "status": "ok",
        "error": None,
        "attrs": {"model": "NN-Q"},
    }
    rec.update(overrides)
    return rec


class TestValidateRecord:
    def test_accepts_valid_span_and_event(self):
        assert validate_record(_valid_record())["name"] == "train"
        assert validate_record(_valid_record(kind="event", duration_s=0.0))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_record([1, 2])

    @pytest.mark.parametrize("field", [
        "schema", "kind", "span_id", "parent_id", "name", "t_wall",
        "t_start", "duration_s", "status", "error", "attrs",
    ])
    def test_missing_field_named_in_error(self, field):
        rec = _valid_record()
        del rec[field]
        with pytest.raises(ValueError, match=f"missing field '{field}'"):
            validate_record(rec)

    def test_wrong_type_named_in_error(self):
        with pytest.raises(ValueError, match="'span_id' has type str"):
            validate_record(_valid_record(span_id="7"))

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unknown trace schema"):
            validate_record(_valid_record(schema="repro-trace/999"))

    def test_bad_kind_and_status_rejected(self):
        with pytest.raises(ValueError, match="span|event"):
            validate_record(_valid_record(kind="metric"))
        with pytest.raises(ValueError, match="ok|error"):
            validate_record(_valid_record(status="maybe"))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            validate_record(_valid_record(duration_s=-0.1))

    def test_error_status_requires_payload(self):
        with pytest.raises(ValueError, match="no error payload"):
            validate_record(_valid_record(status="error", error=None))
        assert validate_record(_valid_record(
            status="error", error={"type": "ValueError", "message": "boom"}
        ))


class TestTracer:
    def test_span_records_are_schema_valid(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with tracer.span("sweep", app="gcc") as sp:
            sp.set(n_configs=4608)
        (rec,) = _records(stream)
        assert rec["name"] == "sweep"
        assert rec["parent_id"] is None
        assert rec["status"] == "ok"
        assert rec["attrs"] == {"app": "gcc", "n_configs": 4608}
        assert rec["duration_s"] >= 0

    def test_nesting_sets_parent_ids(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                pass
        recs = {r["name"]: r for r in _records(stream)}
        outer_id = recs["outer"]["span_id"]
        assert recs["outer"]["parent_id"] is None
        assert recs["inner-a"]["parent_id"] == outer_id
        assert recs["inner-b"]["parent_id"] == outer_id
        # Children close (and are written) before the parent.
        names = [r["name"] for r in _records(stream)]
        assert names.index("inner-a") < names.index("outer")

    def test_exception_captured_and_propagated(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("train", model="NN-Q"):
                raise RuntimeError("boom")
        (rec,) = _records(stream)
        assert rec["status"] == "error"
        assert rec["error"] == {"type": "RuntimeError", "message": "boom"}

    def test_annotate_writes_zero_duration_event(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        with tracer.span("run"):
            tracer.annotate("cache-snapshot", hits=3)
        recs = {r["name"]: r for r in _records(stream)}
        event = recs["cache-snapshot"]
        assert event["kind"] == "event"
        assert event["duration_s"] == 0.0
        assert event["parent_id"] == recs["run"]["span_id"]
        assert event["attrs"] == {"hits": 3}

    def test_spans_feed_metrics_registry(self):
        reg = MetricsRegistry()
        tracer = Tracer(stream=io.StringIO(), registry=reg)
        with tracer.span("train"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("train"):
                raise ValueError("bad fit")
        hist = reg.get("span.train.seconds")
        assert hist is not None and hist.count == 2
        assert reg.get("span.train.errors").value == 1

    def test_threads_nest_independently(self):
        stream = io.StringIO()
        tracer = Tracer(stream=stream)
        done = threading.Event()

        def worker():
            with tracer.span("worker-span"):
                done.wait(5)

        with tracer.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            done.set()
            t.join()
        recs = {r["name"]: r for r in _records(stream)}
        # The worker's span opened while main-span was live on *this* thread,
        # but stacks are per-thread, so it is still a root span.
        assert recs["worker-span"]["parent_id"] is None

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=path)
        with tracer.span("a"):
            pass
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert validate_record(json.loads(lines[0]))["name"] == "a"


class TestModuleLevelApi:
    def test_disabled_span_is_shared_noop(self):
        assert trace.get_tracer() is None
        cm = trace.span("anything", attr=1)
        assert cm is trace._NULL_SPAN
        with cm as sp:
            sp.set(ignored=True)  # must not raise
        trace.annotate("ignored")  # no-op, must not raise

    def test_configure_and_shutdown(self):
        stream = io.StringIO()
        trace.configure(stream=stream)
        assert trace.get_tracer() is not None
        with trace.span("phase"):
            pass
        trace.shutdown()
        assert trace.get_tracer() is None
        (rec,) = _records(stream)
        assert rec["name"] == "phase"

    def test_configure_replaces_previous_tracer(self):
        first = trace.configure(stream=io.StringIO())
        second = trace.configure(stream=io.StringIO())
        assert trace.get_tracer() is second
        assert second is not first
