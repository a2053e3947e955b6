"""Cross-shard merge: timelines, span-id rebasing, metrics aggregation."""

from __future__ import annotations

import json

import pytest

from repro.obs.aggregate import (
    aggregate_metrics,
    merge_timeline,
    metrics_dir,
    obs_dir,
    read_shard_metrics,
    read_shard_traces,
    read_spool_events,
    spool_timeline_records,
    write_timeline,
)
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry, snapshot_quantile
from repro.obs.trace import Tracer, validate_record


def _write_shard_trace(root, shard, names, t0=100.0):
    """Hand-rolled trace file: one root span per name, ids from 1."""
    path = obs_dir(root) / f"trace.{shard}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, name in enumerate(names):
            fh.write(json.dumps({
                "schema": "repro-trace/1", "kind": "span",
                "span_id": i + 1, "parent_id": 1 if i else None,
                "name": name, "t_wall": t0 + i, "t_start": float(i),
                "duration_s": 0.5, "status": "ok", "error": None,
                "trace_id": f"job-{shard}", "attrs": {},
            }) + "\n")
    return path


def _spool_events():
    return [
        {"ev": "submit", "id": "j1", "t": 10.0, "trace_id": "j1",
         "spec": {"kind": "sweep"}},
        {"ev": "lease", "id": "j1", "t": 11.0, "worker": "w0"},
        {"ev": "done", "id": "j1", "t": 12.0, "worker": "w0"},
        {"ev": "submit", "id": "j2", "t": 10.5, "trace_id": "j2",
         "spec": {"kind": "fit"}},
        {"ev": "fail", "id": "j2", "t": 13.0, "worker": "w1",
         "error_type": "ReproError", "message": "boom"},
    ]


class TestReadShardTraces:
    def test_tags_shard_and_rebases_ids(self, tmp_path):
        _write_shard_trace(tmp_path, "w0", ["a", "b"])
        _write_shard_trace(tmp_path, "w1", ["c", "d"])
        records, malformed = read_shard_traces(tmp_path)
        assert malformed == 0
        assert [r["shard"] for r in records] == ["w0", "w0", "w1", "w1"]
        # ids unique across shards; intra-shard parent links preserved
        assert [r["span_id"] for r in records] == [1, 2, 3, 4]
        assert records[1]["parent_id"] == 1
        assert records[3]["parent_id"] == 3

    def test_schema_violations_counted_not_fatal(self, tmp_path):
        path = _write_shard_trace(tmp_path, "w0", ["a"])
        with open(path, "a") as fh:
            fh.write(json.dumps({"schema": "repro-trace/1"}) + "\n")
            fh.write("{torn\n")
        records, malformed = read_shard_traces(tmp_path)
        assert len(records) == 1
        assert malformed == 2

    def test_missing_obs_dir_is_empty(self, tmp_path):
        assert read_shard_traces(tmp_path) == ([], 0)


class TestSpoolTimeline:
    def test_records_are_schema_valid_events(self):
        out = spool_timeline_records(_spool_events(), next_id=7)
        assert [r["name"] for r in out] == [
            "spool.submit", "spool.lease", "spool.done", "spool.submit",
            "spool.fail"]
        assert [r["span_id"] for r in out] == [7, 8, 9, 10, 11]
        for rec in out:
            validate_record({k: v for k, v in rec.items() if k != "shard"})
            assert rec["shard"] == "spool"

    def test_fail_carries_error_and_status(self):
        fail = spool_timeline_records(_spool_events())[-1]
        assert fail["status"] == "error"
        assert fail["error"] == {"type": "ReproError", "message": "boom"}

    def test_trace_id_from_submit_with_job_id_fallback(self):
        events = [
            {"ev": "submit", "id": "j1", "t": 1.0, "trace_id": "custom"},
            {"ev": "lease", "id": "j1", "t": 2.0},
            {"ev": "lease", "id": "orphan", "t": 3.0},  # no submit seen
        ]
        out = spool_timeline_records(events)
        assert [r["trace_id"] for r in out] == ["custom", "custom", "orphan"]

    def test_pre_plane_events_without_t_skipped(self):
        out = spool_timeline_records([{"ev": "lease", "id": "j1"},
                                      {"ev": "hb", "id": "j1", "t": 5.0}])
        assert out == []


class TestMergeTimeline:
    def _build(self, tmp_path):
        with open(tmp_path / "spool.jsonl", "w") as fh:
            for ev in _spool_events():
                fh.write(json.dumps(ev) + "\n")
        _write_shard_trace(tmp_path, "w0", ["job.execute"], t0=11.5)
        _write_shard_trace(tmp_path, "w1", ["job.execute"], t0=12.5)
        return merge_timeline(tmp_path)

    def test_ordered_by_wall_clock(self, tmp_path):
        timeline = self._build(tmp_path)
        walls = [r["t_wall"] for r in timeline.records]
        assert walls == sorted(walls)
        assert timeline.shards == ("w0", "w1")
        assert timeline.n_spans == 2
        assert timeline.n_spool_events == 5
        assert timeline.n_malformed == 0

    def test_for_trace_and_summary(self, tmp_path):
        timeline = self._build(tmp_path)
        j1 = timeline.for_trace("j1")
        assert [r["name"] for r in j1] == ["spool.submit", "spool.lease",
                                          "spool.done"]
        assert "2 spans" in timeline.summary()
        assert "2 shard(s)" in timeline.summary()

    def test_write_timeline_roundtrips(self, tmp_path):
        timeline = self._build(tmp_path)
        out = write_timeline(timeline, tmp_path / "merged.jsonl")
        lines = [json.loads(x) for x in out.read_text().splitlines()]
        assert lines == [json.loads(json.dumps(r, sort_keys=True))
                         for r in timeline.records]

    def test_empty_spool_root(self, tmp_path):
        timeline = merge_timeline(tmp_path)
        assert timeline.records == ()
        assert read_spool_events(tmp_path) == ([], 0)

    def test_tracer_output_merges(self, tmp_path):
        """Real Tracer files (not hand-rolled) survive the merge path."""
        path = obs_dir(tmp_path) / "trace.w9.jsonl"
        path.parent.mkdir(parents=True)
        tracer = Tracer(path=path)
        with tracer.span("job.execute", job_id="x"):
            pass
        tracer.close()
        timeline = merge_timeline(tmp_path)
        assert timeline.n_spans == 1
        assert timeline.records[0]["shard"] == "w9"


def _snapshot_doc(shard, pid, t, n=3, final=False):
    reg = MetricsRegistry()
    reg.counter("jobs.done").inc(n)
    reg.gauge("queue.depth").set(float(n))
    for i in range(n):
        reg.histogram("fit.seconds").observe(0.01 * (i + 1))
    return {"schema": METRICS_SCHEMA, "shard": shard, "pid": pid,
            "t": t, "final": final, "metrics": reg.snapshot()}


class TestReadShardMetrics:
    def test_dedup_keeps_newest_per_shard_pid(self, tmp_path):
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        (mdir / "w0.json").write_text(
            json.dumps(_snapshot_doc("w0", 42, t=200.0, n=5)))
        # salvaged older generation of the same (shard, pid)
        (mdir / "w0.g1.json").write_text(
            json.dumps(_snapshot_doc("w0", 42, t=100.0, n=2)))
        docs, unreadable = read_shard_metrics(tmp_path)
        assert unreadable == 0
        assert len(docs) == 1
        assert docs[0]["metrics"]["jobs.done"]["value"] == 5

    def test_distinct_pids_both_kept(self, tmp_path):
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        (mdir / "w0.json").write_text(
            json.dumps(_snapshot_doc("w0", 43, t=200.0, n=1)))
        (mdir / "w0.g1.json").write_text(
            json.dumps(_snapshot_doc("w0", 42, t=100.0, n=2)))
        docs, _ = read_shard_metrics(tmp_path)
        assert len(docs) == 2

    def test_bare_legacy_snapshot_wrapped(self, tmp_path):
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        reg = MetricsRegistry()
        reg.counter("c").inc()
        (mdir / "old.json").write_text(json.dumps(reg.snapshot()))
        docs, _ = read_shard_metrics(tmp_path)
        assert docs[0]["shard"] == "old"
        assert docs[0]["pid"] is None
        assert docs[0]["metrics"]["c"]["value"] == 1

    def test_metrics_file_export_aggregates_like_a_shard(self, tmp_path):
        # A --metrics-file export is the same repro-metrics/1 document a
        # worker flushes, so dropped into the spool it merges as a shard.
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        (mdir / "w0.json").write_text(
            json.dumps(_snapshot_doc("w0", 42, t=200.0, n=2)))
        reg = MetricsRegistry()
        reg.counter("jobs.done").inc(5)
        reg.export(mdir / "cli-run.json", extra={"cache": {"hits": 1}})
        docs, unreadable = read_shard_metrics(tmp_path)
        assert unreadable == 0
        assert [d["shard"] for d in docs] == ["cli-run", "w0"]
        assert docs[0]["pid"] is None
        agg = aggregate_metrics(docs)
        assert agg["shards"] == ["cli-run", "w0@42"]
        assert agg["metrics"]["jobs.done"]["value"] == 7

    def test_other_schema_counts_as_unreadable(self, tmp_path):
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        doc = _snapshot_doc("w0", 42, t=200.0)
        (mdir / "ok.json").write_text(json.dumps(doc))
        doc["schema"] = "repro-shardmetrics/1"
        (mdir / "old.json").write_text(json.dumps({**doc, "pid": 43}))
        (mdir / "trace.json").write_text(
            json.dumps({"schema": "repro-trace/1", "kind": "span"}))
        docs, unreadable = read_shard_metrics(tmp_path)
        assert unreadable == 2
        assert [(d["shard"], d["pid"]) for d in docs] == [("w0", 42)]

    def test_unreadable_files_counted(self, tmp_path):
        mdir = metrics_dir(tmp_path)
        mdir.mkdir(parents=True)
        (mdir / "bad.json").write_text("{torn")
        (mdir / "list.json").write_text("[1, 2]")
        docs, unreadable = read_shard_metrics(tmp_path)
        assert docs == []
        assert unreadable == 2

    def test_missing_dir_is_empty(self, tmp_path):
        assert read_shard_metrics(tmp_path) == ([], 0)


class TestAggregateMetrics:
    def test_counters_gauges_sum_histograms_merge(self):
        agg = aggregate_metrics([_snapshot_doc("w0", 1, 10.0, n=2),
                                 _snapshot_doc("w1", 2, 11.0, n=3)])
        assert agg["schema"] == "repro-metrics/1"
        assert agg["shards"] == ["w0@1", "w1@2"]
        assert agg["metrics"]["jobs.done"]["value"] == 5
        assert agg["metrics"]["queue.depth"]["value"] == 5.0
        hist = agg["metrics"]["fit.seconds"]
        assert hist["count"] == 5
        assert hist["sum"] == pytest.approx(0.01 + 0.02 + 0.01 + 0.02 + 0.03)
        assert hist["mean"] == pytest.approx(hist["sum"] / 5)
        assert hist["max"] == pytest.approx(0.03)
        assert agg["conflicts"] == []
        assert set(agg["per_shard"]) == {"w0@1", "w1@2"}

    def test_type_conflict_recorded_first_shard_wins(self):
        a = _snapshot_doc("w0", 1, 10.0)
        b = _snapshot_doc("w1", 2, 11.0)
        b["metrics"]["jobs.done"] = {"type": "gauge", "value": 9.0}
        agg = aggregate_metrics([a, b])
        assert agg["conflicts"] == ["jobs.done"]
        assert agg["metrics"]["jobs.done"]["type"] == "counter"
        assert agg["metrics"]["jobs.done"]["value"] == 3

    def test_bucket_conflict_recorded(self):
        a = _snapshot_doc("w0", 1, 10.0)
        b = _snapshot_doc("w1", 2, 11.0)
        b["metrics"]["fit.seconds"]["buckets"] = [1.0, 2.0]
        agg = aggregate_metrics([a, b])
        assert agg["conflicts"] == ["fit.seconds"]

    def test_aggregate_is_json_serializable(self):
        json.dumps(aggregate_metrics([_snapshot_doc("w0", 1, 10.0)]))


class TestSnapshotQuantile:
    def test_matches_live_histogram_quantile(self):
        from repro.obs.metrics import Histogram
        hist = Histogram("fit.seconds")
        for v in (0.01, 0.02, 0.03):
            hist.observe(v)
        snap = hist.snapshot()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert snapshot_quantile(snap, q) == hist.quantile(q)

    def test_empty_and_invalid(self):
        assert snapshot_quantile({"count": 0}, 0.5) == 0.0
        with pytest.raises(ValueError):
            snapshot_quantile({"count": 1, "buckets": [], "counts": []}, 1.5)

    def test_overflow_returns_max(self):
        snap = {"count": 1, "buckets": [1.0], "counts": [0], "max": 7.5}
        assert snapshot_quantile(snap, 1.0) == 7.5
