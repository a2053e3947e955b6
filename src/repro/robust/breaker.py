"""Circuit breakers: stop hammering a backend that keeps failing.

A service worker talks to two kinds of fallible backend: the disk tier of
the result cache (which can sit on a full, slow, or vanished mount) and the
expensive model-fit paths (NN training that keeps diverging on a pathological
tenant dataset). Retrying those on every job converts one broken dependency
into a service-wide slowdown. :class:`CircuitBreaker` implements the
classic three-state pattern:

* **closed** — requests flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: requests are refused instantly (:meth:`allow` returns False) for
  ``reset_timeout`` seconds. The caller degrades — the cache skips its disk
  tier, the degradation ladder skips its expensive rungs — instead of
  blocking.
* **half-open** — after the timeout one probe request is let through; its
  success closes the breaker, its failure re-opens it (restarting the
  timeout).

State transitions are pure functions of the injected ``clock``, so tests
drive them deterministically; every trip/close is counted in the metrics
registry (``robust.breaker.opened`` / ``...closed``) and appended to
:attr:`CircuitBreaker.events` following the executor/cache event
convention.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.obs.metrics import default_registry as _metrics

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Three-state (closed / open / half-open) circuit breaker.

    Parameters
    ----------
    name:
        Label used in events and metrics.
    failure_threshold:
        Consecutive failures that trip the breaker open.
    reset_timeout:
        Seconds the breaker stays open before letting a probe through.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, name: str, failure_threshold: int = 5,
                 reset_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {reset_timeout}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.events: list[str] = []

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker half-opens (0.0 when not open)."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self._opened_at + self.reset_timeout - self._clock())

    def _maybe_half_open(self) -> None:
        # Caller holds the lock.
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probe_in_flight = False
            self.events.append(f"half-open:{self.name}")

    # -- decisions -----------------------------------------------------------

    def allow(self) -> bool:
        """May the guarded backend be called right now?

        In half-open state only a single probe is admitted until its
        outcome is recorded; concurrent callers are refused.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        """The guarded call worked; close (or stay closed) and reset counts."""
        with self._lock:
            if self._state != CLOSED:
                self.events.append(f"closed:{self.name}")
                _metrics().counter("robust.breaker.closed").inc()
            self._state = CLOSED
            self._failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """The guarded call failed; trip open at the threshold (or re-open)."""
        with self._lock:
            self._maybe_half_open()
            self._failures += 1
            self._probe_in_flight = False
            if self._state == HALF_OPEN or (
                self._state == CLOSED and self._failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self.events.append(f"open:{self.name}")
                _metrics().counter("robust.breaker.opened").inc()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"CircuitBreaker({self.name!r}, state={self.state!r}, "
                f"failures={self._failures})")
