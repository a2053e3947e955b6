"""Metrics registry: counters, gauges, histogram bucket math, export.

The histogram properties run under hypothesis when it is installed and fall
back to a fixed seeded-random sweep otherwise, so the bucket math stays
property-tested even in minimal environments.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from repro.obs.slo import SLO_BUCKETS

try:
    from hypothesis import given, settings, strategies as st

    def seeds(n_examples: int = 40, max_seed: int = 10**6):
        """Feed the test a shrinkable integer seed via hypothesis."""

        def deco(fn):
            return settings(max_examples=n_examples, deadline=None)(
                given(st.integers(0, max_seed))(fn)
            )

        return deco

except ImportError:  # pragma: no cover - exercised only without hypothesis

    def seeds(n_examples: int = 40, max_seed: int = 10**6):
        """Fallback: a fixed, seeded sweep of random example seeds."""
        picker = random.Random(20260806)
        chosen = [picker.randrange(max_seed + 1) for _ in range(n_examples)]

        def deco(fn):
            return pytest.mark.parametrize("seed", chosen)(fn)

        return deco


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("tasks")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("tasks").inc(-1)

    def test_snapshot(self):
        c = Counter("tasks")
        c.inc(4)
        assert c.snapshot() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge("entries")
        g.set(10)
        g.inc(-3)
        assert g.value == 7.0
        assert g.snapshot() == {"type": "gauge", "value": 7.0}


class TestHistogramUnit:
    def test_rejects_empty_or_unsorted_bounds(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram("h").observe(float("nan"))

    def test_boundary_value_lands_in_its_bucket(self):
        # v == bound goes into that bound's bucket (le semantics).
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)
        h.observe(2.0)
        h.observe(2.0001)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1]
        assert snap["overflow"] == 1

    def test_empty_histogram_stats(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["min"] is None and snap["max"] is None

    def test_quantile_bounds(self):
        h = Histogram("h", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 50.0):
            h.observe(v)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        assert h.quantile(0.25) == 0.1
        assert h.quantile(0.75) == 1.0
        # Overflow quantile reports the recorded max, not +Inf.
        assert h.quantile(1.0) == 50.0


class TestHistogramProperties:
    @seeds()
    def test_counts_partition_observations(self, seed):
        """Every observation lands in exactly one bucket (incl. overflow)."""
        rng = np.random.default_rng(seed)
        h = Histogram("h")
        values = rng.uniform(0.0, 400.0, size=rng.integers(1, 200))
        for v in values:
            h.observe(float(v))
        snap = h.snapshot()
        assert sum(snap["counts"]) + snap["overflow"] == len(values)
        assert h.count == len(values)

    @seeds()
    def test_observation_lands_in_correct_bucket(self, seed):
        """Bucket i holds exactly the values in (bound[i-1], bound[i]]."""
        rng = np.random.default_rng(seed)
        h = Histogram("h")
        values = [float(v) for v in rng.uniform(0.0, 400.0, size=50)]
        for v in values:
            h.observe(v)
        bounds = h.buckets
        for i, count in enumerate(h.snapshot()["counts"]):
            lo = bounds[i - 1] if i else float("-inf")
            expected = sum(1 for v in values if lo < v <= bounds[i])
            assert count == expected, f"bucket {i} ({lo}, {bounds[i]}]"
        overflow = sum(1 for v in values if v > bounds[-1])
        assert h.snapshot()["overflow"] == overflow

    @seeds(n_examples=25)
    def test_sum_mean_min_max_consistent(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(1, 60)))
        h = Histogram("h")
        for v in values:
            h.observe(float(v))
        assert h.sum == pytest.approx(values.sum())
        assert h.mean == pytest.approx(values.mean())
        snap = h.snapshot()
        assert snap["min"] == pytest.approx(values.min())
        assert snap["max"] == pytest.approx(values.max())

    @seeds(n_examples=25)
    def test_summary_equals_hand_built_latency_cell(self, seed):
        """summary() equals the latency cell built by hand from snapshot()."""
        rng = np.random.default_rng(seed)
        h = Histogram("h", buckets=SLO_BUCKETS)
        # exponential tails overflow the last bound now and then
        for v in rng.exponential(rng.choice([0.01, 1.0, 200.0]),
                                 size=int(rng.integers(0, 80))):
            h.observe(float(v))
        snap = h.snapshot()

        def walk(q):  # reference bucket walk, independent of the code
            if snap["count"] == 0:
                return 0.0
            running = 0
            for bound, c in zip(h.buckets, snap["counts"]):
                running += c
                if running >= q * snap["count"]:
                    return bound
            return snap["max"]

        assert h.summary() == {
            "count": snap["count"], "p50": walk(0.50), "p95": walk(0.95),
            "p99": walk(0.99), "mean": snap["mean"], "max": snap["max"]}


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("a")

    def test_snapshot_sorted_and_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.gauge("a.first").set(2)
        reg.histogram("m.mid").observe(0.3)
        assert list(reg.snapshot()) == ["a.first", "m.mid", "z.last"]
        assert reg.to_json() == reg.to_json()

    def test_to_json_schema_and_extra(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        doc = json.loads(reg.to_json(extra={"cache": {"enabled": True}}))
        assert doc["schema"] == "repro-metrics/1"
        assert doc["metrics"]["hits"]["value"] == 3.0
        assert doc["cache"] == {"enabled": True}

    def test_export_creates_parents(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        out = tmp_path / "deep" / "metrics.json"
        reg.export(out)
        assert json.loads(out.read_text())["metrics"]["hits"]["value"] == 1.0

    def test_reset_empties(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.reset()
        assert len(reg) == 0

    def test_default_registry_singleton_and_reset(self):
        a = default_registry()
        assert default_registry() is a
        reset_default_registry()
        assert default_registry() is not a
