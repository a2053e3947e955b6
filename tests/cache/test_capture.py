"""Tests for cache probes recorded as ``cache.probe`` span-trace events."""

from __future__ import annotations

import io

import pytest

from repro import obs
from repro.cache import ResultCache
from repro.obs.summarize import read_trace

PROBE_FIELDS = {"key", "namespace", "kind", "hit", "layer"}


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.shutdown()
    yield
    obs.shutdown()


def _probes(records):
    return [r for r in records if r["name"] == "cache.probe"]


def test_capture_disabled_is_noop():
    assert obs.get_tracer() is None
    cache = ResultCache()
    assert cache.get_or_compute(("k",), lambda: 1, kind="kind") == 1
    stream = io.StringIO()
    obs.configure(stream=stream)
    obs.shutdown()
    cache.get_or_compute(("k",), lambda: 1, kind="kind")   # no tracer again
    assert stream.getvalue() == ""
    assert cache.events == ["miss:kind", "hit:memory:kind"]


def test_configure_and_shutdown_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(trace_path=path)
    ResultCache(namespace="ns").get_or_compute(("k1",), lambda: 1, kind="kind")
    obs.shutdown()
    records, malformed = read_trace(path)
    assert malformed == 0
    probes = _probes(records)
    assert len(probes) == 1 and probes[0]["attrs"]["namespace"] == "ns"


def test_reconfigure_flushes_previous_recorder(tmp_path):
    first = tmp_path / "a.jsonl"
    cache = ResultCache()
    obs.configure(trace_path=first)
    cache.get_or_compute(("k1",), lambda: 1, kind="kind")
    obs.configure(trace_path=tmp_path / "b.jsonl")   # closes the first
    records, _ = read_trace(first)
    assert [r["attrs"]["hit"] for r in _probes(records)] == [False]
    assert not (tmp_path / "b.jsonl").exists()


def test_result_cache_probes_are_recorded(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(trace_path=path)
    cache = ResultCache(disk_root=tmp_path / "store", namespace="t")
    cache.get_or_compute({"q": 1}, lambda: 41, kind="answer")   # miss
    cache.get_or_compute({"q": 1}, lambda: 41, kind="answer")   # memory hit
    cache.memory.clear()
    cache.get_or_compute({"q": 1}, lambda: 41, kind="answer")   # disk hit
    obs.shutdown()
    records, _ = read_trace(path)
    probes = _probes(records)
    assert all(r["kind"] == "event" for r in probes)
    assert all(set(r["attrs"]) == PROBE_FIELDS for r in probes)
    attrs = [r["attrs"] for r in probes]
    assert [(a["hit"], a["layer"]) for a in attrs] == [
        (False, None), (True, "memory"), (True, "disk")]
    assert all(a["namespace"] == "t" and a["kind"] == "answer" for a in attrs)
    assert len({a["key"] for a in attrs}) == 1


def test_reader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(trace_path=path)
    ResultCache().get_or_compute(("k",), lambda: 1, kind="kind")
    obs.shutdown()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": "repro-tra')
    records, malformed = read_trace(path)
    assert len(_probes(records)) == 1 and malformed == 1
