"""Tests for the circuit breaker and its ladder/cache integrations."""

import numpy as np
import pytest

from repro.robust.breaker import CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker("test", failure_threshold=3, reset_timeout=10.0,
                          clock=clock)


class TestStateMachine:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_trips_at_threshold(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert "open:test" in breaker.events

    def test_success_resets_the_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # non-consecutive failures don't trip

    def test_half_opens_after_timeout(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.t += 10.0
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.t += 10.0
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # concurrent caller refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert "closed:test" in breaker.events

    def test_failed_probe_reopens(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.t += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.t += 10.0
        assert breaker.allow()  # half-opens again after another timeout

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", reset_timeout=0.0)


@pytest.fixture(scope="module")
def train(spec_archive):
    from repro.specdata.schema import records_to_dataset

    recs = [r for r in spec_archive("opteron-2") if r.year == 2005]
    return records_to_dataset(recs)


class TestLadderIntegration:
    """While the breaker is open the ladder skips its guarded NN rungs."""

    def _ladder(self):
        from repro.robust import ValidationGate, default_ladder

        return default_ladder(seed=0, gate=ValidationGate())

    def test_open_breaker_skips_nn_rungs(self, clock, train):
        from repro.core.models import model_builders

        ladder = self._ladder()
        breaker = CircuitBreaker("fit", failure_threshold=1,
                                 reset_timeout=1000.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        builders = model_builders(("NN-E",), seed=0)
        rng = np.random.default_rng(0)
        model, estimate, walk = ladder.fit_model(
            "NN-E", builders["NN-E"], train, rng, n_cv_reps=2,
            breaker=breaker)
        assert walk.deployed in ("LR-S", "LR-E", "mean-baseline")
        skipped = [s for s in walk.steps if s.outcome == "breaker-open"]
        assert [s.label for s in skipped] == ["NN-E", "NN-Q"]

    def test_closed_breaker_is_invisible(self, clock, train):
        """Clean runs with a closed breaker stay bit-identical."""
        from repro.core.models import model_builders

        builders = model_builders(("LR-E",), seed=0)
        ladder = self._ladder()
        out_plain = ladder.fit_model(
            "LR-E", builders["LR-E"], train, np.random.default_rng(7),
            n_cv_reps=2)
        breaker = CircuitBreaker("fit", clock=clock)
        out_guarded = ladder.fit_model(
            "LR-E", builders["LR-E"], train, np.random.default_rng(7),
            n_cv_reps=2, breaker=breaker, guarded_rungs=("LR-E",))
        assert out_plain[1].mean == out_guarded[1].mean
        assert np.array_equal(out_plain[0].predict(train),
                              out_guarded[0].predict(train))
        assert breaker.state == "closed"  # acceptance recorded a success


class TestCacheDiskBreaker:
    """An open disk breaker degrades the cache to memory-only."""

    def test_disk_skipped_while_open(self, tmp_path, clock):
        from repro.cache.result_cache import ResultCache

        breaker = CircuitBreaker("disk", failure_threshold=1,
                                 reset_timeout=1000.0, clock=clock)
        cache = ResultCache(max_entries=4, disk_root=tmp_path / "d",
                            disk_breaker=breaker)
        assert cache.get_or_compute(("k",), lambda: 1) == 1
        assert len(cache.disk) == 1  # closed breaker: disk written
        breaker.record_failure()
        cache2 = ResultCache(max_entries=4, disk_root=tmp_path / "d",
                             disk_breaker=breaker)
        assert cache2.get_or_compute(("k",), lambda: 99) == 99  # disk skipped
        assert any(e.startswith("breaker:disk-skip") for e in cache2.events)

    def test_io_errors_trip_the_breaker(self, tmp_path, clock, monkeypatch):
        from repro.cache.disk import DiskStore
        from repro.cache.result_cache import ResultCache

        breaker = CircuitBreaker("disk", failure_threshold=2,
                                 reset_timeout=1000.0, clock=clock)
        cache = ResultCache(max_entries=4, disk_root=tmp_path / "d",
                            disk_breaker=breaker)

        def sick_put(key, value):
            cache.disk.io_errors += 1

        monkeypatch.setattr(cache.disk, "put", sick_put)
        monkeypatch.setattr(
            DiskStore, "get",
            lambda self, key, default=None: self.__dict__.__setitem__(
                "io_errors", self.io_errors + 1) or default)
        cache.get_or_compute(("a",), lambda: 1)
        cache.get_or_compute(("b",), lambda: 2)
        assert breaker.state == "open"
        # While open, computes still succeed from memory/fresh compute.
        assert cache.get_or_compute(("c",), lambda: 3) == 3

    def test_namespace_scopes_keys(self, tmp_path):
        from repro.cache.result_cache import ResultCache

        shared = tmp_path / "d"
        a = ResultCache(disk_root=shared, namespace="tenant-a")
        b = ResultCache(disk_root=shared, namespace="tenant-b")
        plain = ResultCache(disk_root=shared)
        key = ("sweep", "gcc")
        assert len({a.key_for(key), b.key_for(key), plain.key_for(key)}) == 3
        # Same namespace across instances (processes) shares entries.
        a.get_or_compute(key, lambda: "A")
        a2 = ResultCache(disk_root=shared, namespace="tenant-a")
        assert a2.get_or_compute(key, lambda: "fresh") == "A"
        assert b.get_or_compute(key, lambda: "B") == "B"
