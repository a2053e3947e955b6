"""Shared-memory payload shipping: round trips, fallback, verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import shm as shm_mod
from repro.parallel.shm import PayloadHandle, SharedPayload, attach_payload


@pytest.fixture(autouse=True)
def _fresh_attach_memo():
    shm_mod._ATTACHED.clear()
    yield
    shm_mod._ATTACHED.clear()


class TestRoundTrip:
    def test_shared_memory_round_trip(self):
        obj = {"arr": np.arange(1000), "meta": ("gcc", 1e8)}
        with SharedPayload(obj) as shipped:
            assert shipped.handle.name is not None
            assert shipped.handle.inline is None
            out = attach_payload(shipped.handle)
        assert np.array_equal(out["arr"], obj["arr"])
        assert out["meta"] == obj["meta"]

    def test_inline_fallback_round_trip(self, monkeypatch):
        """No shared memory (no module, or /dev/shm refuses the block):
        the pickled bytes ride inline in the handle instead."""
        refused = staticmethod(lambda payload, digest: None)
        for target, name, value in ((SharedPayload, "_create_segment", refused),
                                    (shm_mod, "_shm", None)):
            monkeypatch.setattr(target, name, value)
            obj = {"x": np.arange(5)}
            with SharedPayload(obj) as shipped:
                assert shipped.handle.name is None
                assert shipped.handle.inline is not None
                assert np.array_equal(attach_payload(shipped.handle)["x"], obj["x"])
            shm_mod._ATTACHED.clear()

    def test_attach_is_memoized_per_process(self):
        with SharedPayload({"x": 1}) as shipped:
            first = attach_payload(shipped.handle)
            second = attach_payload(shipped.handle)
        assert first is second

    def test_memo_is_bounded(self):
        handles = []
        payloads = [SharedPayload([i]) for i in range(shm_mod._ATTACHED_MAX + 3)]
        try:
            for p in payloads:
                handles.append(p.handle)
                attach_payload(p.handle)
            assert len(shm_mod._ATTACHED) <= shm_mod._ATTACHED_MAX
        finally:
            for p in payloads:
                p.close()


class TestContentAddressing:
    def test_handle_name_is_content_derived(self):
        """Equal payloads -> equal handles, so task fingerprints are stable."""
        obj = {"space": np.arange(64)}
        with SharedPayload(obj) as a:
            with SharedPayload(obj) as b:
                assert a.handle == b.handle

    def test_different_payloads_different_names(self):
        with SharedPayload([1]) as a, SharedPayload([2]) as b:
            assert a.handle.digest != b.handle.digest
            assert a.handle.name != b.handle.name

    def test_close_unlinks_segment(self):
        shipped = SharedPayload(np.arange(100))
        handle = shipped.handle
        if handle.name is None:  # pragma: no cover - /dev/shm unavailable
            pytest.skip("shared memory unavailable on this platform")
        shipped.close()
        with pytest.raises((FileNotFoundError, OSError)):
            attach_payload(handle)

    def test_inline_digest_verified(self):
        handle = PayloadHandle(digest="0" * 64, size=3, inline=b"abc")
        with pytest.raises(ValueError, match="digest"):
            attach_payload(handle)

    def test_handle_requires_exactly_one_backing(self):
        with pytest.raises(ValueError, match="exactly one"):
            PayloadHandle(digest="0" * 64, size=1)
        with pytest.raises(ValueError, match="exactly one"):
            PayloadHandle(digest="0" * 64, size=1, name="x", inline=b"y")


class TestCrossProcess:
    def test_worker_processes_attach_once_each(self):
        """Payload crosses the process boundary via shm and deserializes."""
        from repro.parallel.executor import ProcessExecutor

        obj = {"cycles": np.arange(512, dtype=np.float64)}
        with SharedPayload(obj) as shipped:
            with ProcessExecutor(max_workers=2) as ex:
                sums = ex.map(_sum_from_handle, [shipped.handle] * 6)
        expected = float(obj["cycles"].sum())
        assert sums == [expected] * 6


def _sum_from_handle(handle: PayloadHandle) -> float:
    return float(attach_payload(handle)["cycles"].sum())
