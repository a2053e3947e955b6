"""End-to-end observability: phase() composition, instrumented pipeline runs,
the traced CLI contract, and the disabled-by-default bit-identity guarantee.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.models import model_builders
from repro.core.sampled import run_sampled_dse
from repro.obs import phase, read_trace, summarize_trace
from repro.obs.trace import validate_record


class TestPhaseComposition:
    def test_phase_is_noop_when_everything_off(self):
        assert phase("sweep", app="gcc") is obs.trace._NULL_SPAN

    def test_phase_opens_span_and_profile_section(self):
        stream = io.StringIO()
        obs.configure(stream=stream, registry=obs.default_registry())
        with phase("train", model="LR-B") as sp:
            sp.set(n_records=7)
        obs.shutdown()
        (rec,) = [validate_record(json.loads(line))
                  for line in stream.getvalue().splitlines()]
        assert rec["name"] == "train"
        assert rec["attrs"] == {"model": "LR-B", "n_records": 7}
        assert obs.default_registry().get("span.train.seconds").count == 1

    def test_phase_works_with_profiling_only(self):
        # --profile alone installs a tracer with no sink, only the registry
        obs.configure(registry=obs.default_registry())
        with phase("encode"):
            pass
        assert obs.default_registry().get("span.encode.seconds").count == 1


class TestInstrumentedPipeline:
    def test_sampled_dse_traced_output_is_bit_identical(self, space_dataset):
        """Tracing must observe the pipeline, never perturb it."""
        space = space_dataset("gcc")
        builders = model_builders(("LR-B", "LR-E"))

        plain = run_sampled_dse(space, builders, 0.01,
                                np.random.default_rng(7), n_cv_reps=2)
        obs.configure(stream=io.StringIO(), registry=obs.default_registry())
        traced = run_sampled_dse(space, builders, 0.01,
                                 np.random.default_rng(7), n_cv_reps=2)
        obs.shutdown()

        assert traced.select_label == plain.select_label
        for label in builders:
            assert traced.outcomes[label].true_error == plain.outcomes[label].true_error
            assert traced.outcomes[label].estimate.per_rep == \
                plain.outcomes[label].estimate.per_rep

    def test_pipeline_spans_nest_under_driver(self, space_dataset):
        stream = io.StringIO()
        obs.configure(stream=stream)
        run_sampled_dse(space_dataset("gcc"), model_builders(("LR-B",)),
                        0.01, np.random.default_rng(0), n_cv_reps=2)
        obs.shutdown()
        records = [validate_record(json.loads(line))
                   for line in stream.getvalue().splitlines()]
        by_name = {}
        for rec in records:
            by_name.setdefault(rec["name"], []).append(rec)
        root = by_name["sampled-dse"][0]
        assert root["parent_id"] is None
        for child in ("holdout", "train", "predict"):
            assert all(r["parent_id"] == root["span_id"] for r in by_name[child])


class TestTracedCli:
    """Acceptance: a traced CLI run emits schema-valid spans covering the
    sweep, encode, train, predict, and holdout phases."""

    REQUIRED_PHASES = ("sweep", "encode", "train", "predict", "holdout")

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs-cli")
        trace_file = out / "trace.jsonl"
        metrics_file = out / "metrics.json"
        rc = main([
            "sampled-dse", "gcc", "--rates", "0.01",
            "--models", "LR-B", "LR-E", "--cv-reps", "2",
            "--trace-file", str(trace_file),
            "--metrics-file", str(metrics_file),
        ])
        return rc, trace_file, metrics_file

    def test_run_succeeds(self, traced_run):
        rc, trace_file, metrics_file = traced_run
        assert rc == 0
        assert trace_file.exists() and metrics_file.exists()

    def test_every_line_is_schema_valid(self, traced_run):
        _, trace_file, _ = traced_run
        lines = [ln for ln in trace_file.read_text().splitlines() if ln.strip()]
        assert lines
        for line in lines:
            validate_record(json.loads(line))  # raises on any violation

    def test_all_pipeline_phases_covered(self, traced_run):
        _, trace_file, _ = traced_run
        summary = summarize_trace(*read_trace(trace_file))
        present = {p.name for p in summary.phases}
        for required in self.REQUIRED_PHASES:
            assert required in present, f"phase {required!r} missing from trace"
        assert all(p.errors == 0 for p in summary.phases
                   if p.name in self.REQUIRED_PHASES)

    def test_trace_ends_with_cache_snapshot_event(self, traced_run):
        _, trace_file, _ = traced_run
        records, malformed = read_trace(trace_file)
        assert malformed == 0
        events = [r for r in records if r["kind"] == "event"]
        assert events and events[-1]["name"] == "cache-snapshot"

    def test_metrics_file_has_span_histograms_and_cache_section(self, traced_run):
        _, _, metrics_file = traced_run
        doc = json.loads(metrics_file.read_text())
        assert doc["schema"] == "repro-metrics/1"
        for required in self.REQUIRED_PHASES:
            name = f"span.{required}.seconds"
            assert name in doc["metrics"], f"{name} missing"
            assert doc["metrics"][name]["count"] >= 1
        # Satellite fix: the final cache-counter snapshot rides in the export,
        # so `repro cache stats` and --metrics-file agree on the vocabulary.
        assert "cache" in doc
        assert "result_cache" in doc["cache"]
        assert "encoder_matrix_cache" in doc["cache"]

    def test_obs_summarize_command_renders_run(self, traced_run, capsys):
        _, trace_file, _ = traced_run
        assert main(["obs", "summarize", str(trace_file)]) == 0
        text = capsys.readouterr().out
        for required in self.REQUIRED_PHASES:
            assert required in text

    def test_obs_summarize_missing_file_fails_cleanly(self, capsys):
        assert main(["obs", "summarize", "/no/such/trace.jsonl"]) != 0
        assert "no such trace file" in capsys.readouterr().err


class TestProfiledCli:
    def test_profile_flag_reports_sections(self, capsys):
        assert main(["sweep", "mcf", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profiled sections (wall-clock):" in err
        assert "sweep" in err
        assert "cumulative" in err  # pstats block of the whole command
        assert obs.get_tracer() is None  # CLI tears the tracer down
