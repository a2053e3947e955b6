"""Trace summarization: aggregation, malformed-line tolerance, rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs.summarize import (
    phase_rows,
    read_jsonl_tolerant,
    read_trace,
    render_summary,
    summarize_file,
    summarize_trace,
)
from repro.obs.trace import Tracer


def _write_trace(path):
    """A small two-phase trace with one error span and one event."""
    tracer = Tracer(path=path)
    with tracer.span("sweep", app="gcc"):
        with tracer.span("encode"):
            pass
        with tracer.span("encode"):
            pass
    with pytest.raises(ValueError):
        with tracer.span("train", model="NN-Q"):
            raise ValueError("diverged")
    tracer.annotate("cache-snapshot", hits=1)
    tracer.close()


class TestReadTrace:
    def test_reads_valid_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        records, malformed = read_trace(path)
        assert malformed == 0
        assert len(records) == 5  # 4 spans + 1 event

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        with open(path, "a") as fh:
            fh.write("{not json at all\n")
            fh.write(json.dumps({"schema": "wrong/1"}) + "\n")
            fh.write("\n")  # blank lines are not malformed
        records, malformed = read_trace(path)
        assert len(records) == 5
        assert malformed == 2


class TestReadJsonlTolerant:
    """A SIGKILL can tear the final line anywhere — even mid-UTF-8-byte."""

    def test_torn_json_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"ok": 1}) + "\n" + '{"ev": "sub')
        records, malformed = read_jsonl_tolerant(path)
        assert records == [{"ok": 1}]
        assert malformed == 1

    def test_tail_torn_mid_utf8_sequence(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"ok": 1}).encode() + b"\n"
        torn = json.dumps({"msg": "café"}).encode()[:-3]  # split é
        path.write_bytes(good + torn)
        records, malformed = read_jsonl_tolerant(path)
        assert records == [{"ok": 1}]
        assert malformed == 1

    def test_non_dict_lines_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('[1, 2]\n"str"\n{"ok": 1}\n\n')
        records, malformed = read_jsonl_tolerant(path)
        assert records == [{"ok": 1}]
        assert malformed == 2  # blank lines are fine, non-dicts are not

    def test_malformed_lines_increment_reader_counter(self, tmp_path):
        from repro.obs import default_registry
        path = tmp_path / "t.jsonl"
        path.write_text("{torn\n")
        read_jsonl_tolerant(path)
        counters = default_registry().snapshot()
        assert counters["obs.reader.malformed_lines"]["value"] == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"")
        assert read_jsonl_tolerant(path) == ([], 0)


class TestSummarize:
    def test_phase_aggregation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        summary = summarize_trace(*read_trace(path))
        assert summary.n_spans == 4
        assert summary.n_events == 1
        encode = summary.phase("encode")
        assert encode.count == 2
        assert encode.total_s == pytest.approx(encode.mean_s * 2)
        assert encode.min_s <= encode.max_s
        assert summary.phase("train[NN-Q]").errors == 1
        assert summary.phase("sweep").errors == 0
        with pytest.raises(KeyError):
            summary.phase("no-such-phase")

    def test_spans_grouped_per_model(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path=path)
        for model in ("NN-E", "LR-B", "NN-E"):
            with tracer.span("ml.holdout", model=model):
                pass
        with tracer.span("ml.holdout"):
            pass
        tracer.close()
        summary = summarize_trace(*read_trace(path))
        assert sorted((p.label, p.count) for p in summary.phases) == [
            ("ml.holdout", 1), ("ml.holdout[LR-B]", 1), ("ml.holdout[NN-E]", 2)]
        nn = summary.phase("ml.holdout[NN-E]")
        assert (nn.name, nn.model) == ("ml.holdout", "NN-E")
        text = render_summary(summary)
        assert "ml.holdout[NN-E]" in text and "ml.holdout[LR-B]" in text

    def test_phases_sorted_hottest_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        summary = summarize_trace(*read_trace(path))
        totals = [p.total_s for p in summary.phases]
        assert totals == sorted(totals, reverse=True)

    def test_render_and_summarize_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        text = summarize_file(path)
        assert str(path) in text
        assert "4 spans, 1 events" in text
        for phase in ("sweep", "encode", "train[NN-Q]"):
            assert phase in text

    def test_render_reports_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        with open(path, "a") as fh:
            fh.write("garbage\n")
        summary = summarize_trace(*read_trace(path))
        assert "1 malformed lines skipped" in render_summary(summary)

    def test_phase_rows_json_friendly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(path)
        rows = phase_rows(summarize_trace(*read_trace(path)))
        assert {r["phase"] for r in rows} == {"sweep", "encode", "train[NN-Q]"}
        json.dumps(rows)  # must serialize as-is
        for row in rows:
            assert set(row) == {"phase", "count", "total_s", "mean_s",
                                "min_s", "max_s", "errors"}
