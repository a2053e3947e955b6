"""Profiling through spans: opt-in gating, per-phase span histograms,
nesting under a live cProfile, and the ``--profile`` report."""

from __future__ import annotations

import cProfile

import pytest

from repro import obs
from repro.cli import _profile_report
from repro.obs import default_registry, phase


def _busy(n: int = 2_000) -> int:
    return sum(i * i for i in range(n))


def _registry_tracer():
    """The tracer ``--profile`` installs: no sink, span histograms only."""
    obs.configure(registry=default_registry())
    return default_registry()


class TestGating:
    def test_disabled_by_default(self):
        assert obs.get_tracer() is None
        assert phase("sweep") is obs.trace._NULL_SPAN


class TestSections:
    def test_sections_accumulate_calls_and_time(self):
        reg = _registry_tracer()
        for _ in range(3):
            with phase("train"):
                _busy()
        hist = reg.get("span.train.seconds")
        assert hist.count == 3
        assert hist.sum > 0

    def test_nested_sections_do_not_reenable_cprofile(self):
        # Phases are spans, so nesting them inside a live cProfile never
        # touches the profiler (enabling cProfile twice would raise).
        reg = _registry_tracer()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            with phase("sweep"):
                with phase("encode"):
                    _busy()
        finally:
            profiler.disable()
        assert reg.get("span.sweep.seconds").count == 1
        assert reg.get("span.encode.seconds").count == 1

    def test_exception_still_records_section(self):
        reg = _registry_tracer()
        with pytest.raises(RuntimeError):
            with phase("train"):
                raise RuntimeError("boom")
        assert reg.get("span.train.seconds").count == 1
        assert reg.get("span.train.errors").value == 1

    def test_report_lists_sections_and_functions(self):
        reg = _registry_tracer()
        profiler = cProfile.Profile()
        profiler.enable()
        with phase("sweep"):
            _busy()
        profiler.disable()
        report = _profile_report(profiler, reg, top=5)
        assert "profiled sections (wall-clock):" in report
        assert "sweep" in report
        assert "calls=1" in report
        assert "cumulative" in report  # pstats section present
