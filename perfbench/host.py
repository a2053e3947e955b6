"""The host the benchmark runs on: ``/proc`` readings, fingerprint, speed.

A shared virtual machine does not run at one speed: on a 2-vCPU guest the
same fixed loop took from 150 to 235 ms within minutes, with no steal time
reported to the guest, so neither wall nor CPU time separates a slower
program from a slower host. The benchmark therefore runs a fixed
calibration kernel between the pieces of work it times, and reports times
scaled to a host on which the kernel takes :data:`REF_KERNEL_S`
(:class:`SpeedMeter`). The kernel is the benchmark's own code and calls
nothing in ``repro``, so a change to the program does not move it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import signal
import statistics
import time
from typing import Callable, ContextManager

import numpy as np

#: Seconds the calibration kernel takes on the reference host. A time
#: scaled by :func:`scale` reads as seconds on that host.
REF_KERNEL_S = 0.02
#: Calibration time after a lap, as a share of the lap: a long lap (an NN-E
#: holdout takes ~3 s) gets as many kernel samples as the short laps
#: around it together, so its scale is not set by one 20 ms sample.
CALIBRATION_SHARE = 0.08

_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) * 0.05


def proc_stat(pid: int | str = "self") -> list[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name; [] if gone.

    Index 1 is the parent pid and index 19 the start time in clock ticks.
    """
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux ``prctl``).

    A process whose parent dies is then re-parented to this process rather
    than to init, so :func:`stop_children` can stop it and wait for it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def stop_children() -> None:
    """SIGKILL every child of this process, adopted orphans included, and
    wait for each to end, until none is left.

    A child's pid cannot be reused before it is reaped, so the signals
    reach only this process's own children.
    """
    me = os.getpid()
    while True:
        kids = [int(e) for e in os.listdir("/proc")
                if e.isdigit() and (f := proc_stat(e)) and int(f[1]) == me]
        if not kids:
            return
        for pid in kids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in kids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def process_age_s() -> float:
    """Seconds since this process started (``/proc``, 10 ms resolution)."""
    started = int(proc_stat()[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def host_fingerprint() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now (~20 ms).

    Interpreter-bound integer work plus small matrix products, the two
    kinds of work the workloads do.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    x = _KERNEL_MATRIX
    for _ in range(400):
        x = np.tanh(x @ _KERNEL_MATRIX + 0.5)
    return time.perf_counter() - t0


def calibrate(n: int, all_cpus: bool = False, budget_s: float = 0.0) -> list[float]:
    """Kernel times, back to back: at least ``n`` runs, and more until
    they have taken ``budget_s``. With ``all_cpus``, the runs alternate
    over the CPUs this process may run on, each pinned to one."""
    cpus = sorted(os.sched_getaffinity(0))
    out: list[float] = []
    try:
        while len(out) < n or sum(out) < budget_s:
            if all_cpus:
                os.sched_setaffinity(0, {cpus[len(out) % len(cpus)]})
            out.append(kernel_s())
    finally:
        if all_cpus:
            os.sched_setaffinity(0, cpus)
    return out


def scale(seconds: float, kernel: list[float]) -> float:
    """``seconds``, measured while the kernel took ``kernel`` (their mean),
    as seconds on the reference host."""
    return seconds * REF_KERNEL_S / statistics.fmean(kernel)


class SpeedMeter:
    """Times a pass in laps and samples the host's speed around each lap.

    The host's speed changes within a tenth of a second, so one long
    calibration says little about the work around it. A meter runs kernels
    before the first lap and after every lap, for at least
    :data:`CALIBRATION_SHARE` of the lap, and a lap is scaled by the mean
    of the kernel times at the two calibration points around it. The laps
    are kept short (one model fit, one sweep) and the kernels' time is not
    part of any lap. ``quiet`` is entered around each calibration
    point; a workload whose program keeps processes running between laps
    stops them there, so the kernel measures the host and not the
    program; such a workload also runs on every CPU, so it calibrates
    them all (``all_cpus``). A disabled meter (a traced pass) only times
    laps and scales nothing.
    """

    def __init__(self, enabled: bool = True, kernels_per_lap: int = 1,
                 quiet: Callable[[], ContextManager] = contextlib.nullcontext,
                 all_cpus: bool = False) -> None:
        self.enabled = enabled
        self.kernels_per_lap = kernels_per_lap
        self.quiet = quiet
        self.all_cpus = all_cpus
        self.laps: list[float] = []
        self.points: list[list[float]] = []
        self._calibrate()

    def _calibrate(self, budget_s: float = 0.0) -> None:
        if self.enabled:
            with self.quiet():
                self.points.append(
                    calibrate(self.kernels_per_lap, self.all_cpus, budget_s))
        self._t = time.perf_counter()

    def lap(self) -> None:
        self.laps.append(time.perf_counter() - self._t)
        self._calibrate(CALIBRATION_SHARE * self.laps[-1])

    @property
    def raw_s(self) -> float:
        return sum(self.laps)

    def scaled(self, values: list[float] | None = None) -> list[float]:
        """Each lap's time, or ``values[i]`` measured during lap ``i``, as
        seconds on the reference host."""
        values = self.laps if values is None else values
        if not self.enabled:
            return list(values)
        return [scale(v, self.points[i] + self.points[i + 1])
                for i, v in enumerate(values)]
