"""Bit-identity pin of the seeded fault decisions.

The task injector (:class:`repro.parallel.FaultInjector`) and the disk
injector (:class:`repro.robust.DiskFaultInjector`) decide each fault from a
seeded uniform draw plus explicit call indices. Every chaos test and drill
relies on those decisions replaying exactly, so this module replays long,
fixed call streams through both injectors and compares a SHA-256 of every
observed outcome against a digest recorded from the original code. A change
to the draw streams, to the band order, or to which fault wins when several
could fire changes a digest. The two seeded backoff schedules, task retries
and worker restarts, are pinned the same way over attempts 1-12.

Task faults are observed without harming the test process: ``time.sleep``,
``os._exit`` and ``os.kill`` are patched to record, and
``multiprocessing.parent_process`` is patched to play a pool worker (crash
faults act) or the driver (crash faults are no-ops).
"""

from __future__ import annotations

import errno
import hashlib
import multiprocessing
import os
import time

import pytest

from repro.errors import InjectedFault
from repro.parallel import FaultInjector
from repro.robust import DiskFaultInjector, SimulatedCrash


class _Died(BaseException):
    """Raised by the patched ``os._exit`` / ``os.kill``: the task is gone."""


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- task faults -------------------------------------------------------------

_TASK_PLANS = {
    "exc": dict(p_exception=0.3),
    "mixed": dict(p_exception=0.2, p_delay=0.2, p_crash=0.1,
                  delay_seconds=0.25),
    "crash": dict(p_crash=0.3),
    "fail_once_indices": dict(fail_once_indices=(3, 17, 150)),
    "fail_indices": dict(fail_indices=(5, 17, 199)),
    "crash_indices": dict(crash_indices=(7, 17, 99)),
    "sigkill_indices": dict(sigkill_indices=(11, 17, 99)),
    "all": dict(p_exception=0.2, p_delay=0.2, p_crash=0.1,
                fail_once_indices=(3, 17, 150), fail_indices=(5, 17),
                crash_indices=(7, 17, 99), sigkill_indices=(11, 99)),
}

_TASK_DIGESTS = {
    ("exc", "worker"):
        "2db151b4cd7537d29b0dc1a051e8257226e83d0de7730aa8e39373ec6186eb2c",
    ("exc", "driver"):
        "2db151b4cd7537d29b0dc1a051e8257226e83d0de7730aa8e39373ec6186eb2c",
    ("mixed", "worker"):
        "13e8a3034676b6b37f8f3e1cd5dd329e4dcd4dc7ed64f14d3cc76d8aa1f25ab4",
    ("mixed", "driver"):
        "2384f69ec10987b8c0fb31fee83d676f1008eb250cb59c9b8c81f2ae1e6caae0",
    ("crash", "worker"):
        "a066ddea04b4b66b19b2ca6fdbf4bd676da9745188981309f5b8a6ec35299555",
    ("crash", "driver"):
        "a8023760991af553699b5378c04b058ca0f88f32c920083058fb5ebc6a1a4693",
    ("fail_once_indices", "worker"):
        "81bc4550794e9149a556a1f6f6fdfca1cd87274357916ac8ca6b8de5a3044608",
    ("fail_once_indices", "driver"):
        "81bc4550794e9149a556a1f6f6fdfca1cd87274357916ac8ca6b8de5a3044608",
    ("fail_indices", "worker"):
        "46fa90965c13bfc907e101cb07cc5077dbcbf04bca7fb3f6189ecf89fe62792b",
    ("fail_indices", "driver"):
        "46fa90965c13bfc907e101cb07cc5077dbcbf04bca7fb3f6189ecf89fe62792b",
    ("crash_indices", "worker"):
        "309b6b245b55b6c65edb5a81752569680ac008f928ebe7696698562bcd8e3c26",
    ("crash_indices", "driver"):
        "a8023760991af553699b5378c04b058ca0f88f32c920083058fb5ebc6a1a4693",
    ("sigkill_indices", "worker"):
        "f6d581aadf30fa04dc39ecd5742204c3c4505c69d9ce0a2e41851534a8783e7c",
    ("sigkill_indices", "driver"):
        "a8023760991af553699b5378c04b058ca0f88f32c920083058fb5ebc6a1a4693",
    ("all", "worker"):
        "36b0d0ec7c58a5535c1a91e75ba8971fc567e07c11a377038309b58af9de363a",
    ("all", "driver"):
        "7172ecfa2c52b4559baff73cae899e0eddebaa15f59d982f62c540eec3be259e",
}


def _task_outcomes(plan: dict, monkeypatch) -> list[str]:
    seen: list[str] = []

    def _exit(code):
        raise _Died(f"exit:{code}")

    def _kill(pid, sig):
        raise _Died(f"kill:{int(sig)}:{'self' if pid == os.getpid() else pid}")

    monkeypatch.setattr(time, "sleep", lambda s: seen.append(f"sleep:{s!r}"))
    monkeypatch.setattr(os, "_exit", _exit)
    monkeypatch.setattr(os, "kill", _kill)
    lines = []
    for seed in range(4):
        inj = FaultInjector(seed=seed, **plan)
        for index in range(200):
            for attempt in (1, 2, 3):
                seen.clear()
                try:
                    inj.fire(index, attempt)
                    outcome = "ok"
                except InjectedFault as exc:
                    outcome = f"exc:{exc}"
                except _Died as exc:
                    outcome = str(exc)
                lines.append(f"{seed}/{index}/{attempt} {outcome} "
                             + ",".join(seen))
    return lines


@pytest.mark.parametrize("plan,mode", sorted(_TASK_DIGESTS))
def test_task_fault_sequence_is_pinned(plan, mode, monkeypatch):
    parent = object() if mode == "worker" else None
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: parent)
    lines = _task_outcomes(_TASK_PLANS[plan], monkeypatch)
    assert _digest(lines) == _TASK_DIGESTS[plan, mode]


# -- disk faults -------------------------------------------------------------

_DISK_PLANS = {
    "p_write": dict(p_enospc=0.1, p_eio_write=0.1, p_short_write=0.2),
    "p_fsync": dict(p_eio_fsync=0.3),
    "p_rename": dict(p_rename=0.25),
    "p_all": dict(p_enospc=0.05, p_eio_write=0.1, p_short_write=0.15,
                  p_eio_fsync=0.2, p_rename=0.25),
    "enospc_at": dict(enospc_at=(1, 4, 9)),
    "eio_write_at": dict(eio_write_at=(2, 4, 9)),
    "short_write_at": dict(short_write_at=(0, 3, 9, 12)),
    "torn_crash_at": dict(torn_crash_at=(6, 12)),
    "eio_fsync_at": dict(eio_fsync_at=(1, 5)),
    "crash_after_fsync_at": dict(crash_after_fsync_at=(2, 5)),
    "rename_at": dict(rename_at=(0, 3)),
    "all": dict(p_enospc=0.05, p_eio_write=0.1, p_short_write=0.15,
                p_eio_fsync=0.2, p_rename=0.25,
                enospc_at=(1, 4), eio_write_at=(2, 4, 9),
                short_write_at=(3, 9, 12), torn_crash_at=(6, 12),
                eio_fsync_at=(1, 5), crash_after_fsync_at=(5,),
                rename_at=(0, 3)),
}

_DISK_DIGESTS = {
    "all":
        "8990418ac8c4ee02622152a778efe999e971eedc024ae7077a9aba1bc69d20ef",
    "crash_after_fsync_at":
        "de8d5efef575c0b2b9a0b47a1856f18ca7a14e28d102bef4cf8604cc90a5b9a8",
    "eio_fsync_at":
        "b15b3ac1ed1c5932de0661161b7e1a6e09bff8e266e7675fa527eb042f172841",
    "eio_write_at":
        "46ec36273ccfd1ac54887cc6b46fa396304091cb5eff3a631f3bdecff1eef3f8",
    "enospc_at":
        "b40666eaf1170225b3ac5ed04fff2247ca1e68d570eef3ed857d5f6fab4b210d",
    "p_all":
        "a543e27633b40c855b4bc495e69c7fead8b69e79bd3225f5e203f24b5040e99d",
    "p_fsync":
        "ef253b7423d33e95cb568583134c90629364b95daaac1472a77fbac786c820e2",
    "p_rename":
        "705b4fe7d296fa5bc7e4cd32e5ce0139387dc12651f01aa49656fa2a1059ccd2",
    "p_write":
        "a53da3a353444d3964002e4d873b86762b39ac0f1b599c9d3562032a8ec50184",
    "rename_at":
        "8a9a3a870e0342b06ebc83eca987a916f9272c2c8c99f8b70e75ec67d8b91060",
    "short_write_at":
        "65d5e6538f92f488f8c8e2080a702e95b5e39700a8375c4e45aab99d35edd5b9",
    "torn_crash_at":
        "16a527622d42d486fbc049ef0c8dcc2368e2a477e2b2531652c0e45e356091ad",
}


def _attempt(call) -> str:
    try:
        return f"ok:{call()}"
    except SimulatedCrash as exc:
        return f"crash:{exc}"
    except OSError as exc:
        return f"oserror:{errno.errorcode.get(exc.errno, exc.errno)}"


def _disk_outcomes(plan: dict, tmp_path) -> list[str]:
    lines = []
    for seed in range(4):
        inj = DiskFaultInjector(seed=seed, **plan)
        path = tmp_path / f"data-{seed}"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            for i in range(60):
                data = b"abcdefgh"[: 1 + i % 5]
                src, dst = tmp_path / "src", tmp_path / "dst"
                src.write_bytes(b"x")
                lines.append(" ".join((
                    f"{seed}/{i}",
                    _attempt(lambda: inj.on_write(fd, data)),
                    _attempt(lambda: inj.on_fsync(fd)),
                    _attempt(lambda: inj.on_replace(src, dst)),
                )))
        finally:
            os.close(fd)
        lines.append(f"calls {sorted(inj.calls.items())}")
        lines.append(f"fired {sorted(inj.fired.items())}")
        lines.append(f"size {path.stat().st_size}")
    return lines


@pytest.mark.parametrize("plan", sorted(_DISK_DIGESTS))
def test_disk_fault_sequence_is_pinned(plan, tmp_path):
    lines = _disk_outcomes(_DISK_PLANS[plan], tmp_path)
    assert _digest(lines) == _DISK_DIGESTS[plan]


# -- backoff delays ----------------------------------------------------------

_BACKOFF_DIGESTS = {
    "retry":
        "40d72be1996839f9800312251039fed4556b7d3a6c7fe018374ec1da198aa451",
    "restart":
        "7fb977aa40980fe4f5f8369a1414efb80989a937cf4b5d38c5e3c0e4c2e45d21",
}


def _retry_delays() -> list[str]:
    from repro.parallel.resilient import backoff_delay

    return [f"{seed}/{attempt} {backoff_delay(attempt, seed)!r}"
            for seed in (0, 1, 7, 2008, 2**40 + 3)
            for attempt in range(1, 13)]


def _restart_delays(tmp_path) -> list[str]:
    from repro.service import ServiceConfig, WorkerSupervisor

    lines = []
    for seed in (0, 3, 11):
        sup = WorkerSupervisor(ServiceConfig(root=str(tmp_path / f"s{seed}"),
                                             workers=4, seed=seed))
        for slot in sup.slots:
            for restarts in range(1, 13):
                slot.restarts = restarts
                lines.append(f"{seed}/{slot.index}/{restarts} "
                             f"{sup._restart_delay(slot)!r}")
    return lines


def test_retry_backoff_sequence_is_pinned():
    assert _digest(_retry_delays()) == _BACKOFF_DIGESTS["retry"]


def test_restart_backoff_sequence_is_pinned(tmp_path):
    assert _digest(_restart_delays(tmp_path)) == _BACKOFF_DIGESTS["restart"]
