"""Data-integrity guards, validation gates, and graceful model degradation.

The paper's workflows train on tiny samples (1% of 4608 configurations) and
on hand-entered SPEC announcement records — exactly the regimes where dirty
input rows, ill-conditioned least squares, and divergent NN training can
silently corrupt predictions. ``repro.robust`` is the layer that turns those
silent failures into observable, recoverable ones:

* :mod:`repro.robust.guards` — **ingest guards**: schema/range/dtype
  validation with row-level quarantine for SPEC records and design-space
  responses. Corrupt rows land in a structured :class:`QuarantineReport`
  (JSONL-exportable, traced via :mod:`repro.obs`) instead of aborting the
  run or passing through.
* :mod:`repro.robust.gates` — **validation gates**: after training, a model
  must produce finite predictions on its training domain and a holdout
  error within configurable bounds before the selection layer may pick it.
* :mod:`repro.robust.ladder` — **degradation ladder**: on gate or
  numerical failure the drivers walk a declared fallback chain
  (NN-E → NN-Q → LR-S → LR-E → mean baseline), recording every step as an
  obs counter plus trace event; exhausting the ladder raises
  :class:`~repro.errors.DegradationExhausted`.
* :mod:`repro.robust.breaker` — **circuit breakers**: three-state
  (closed/open/half-open) guards that stop hammering a backend that keeps
  failing; the service wires them around the disk cache tier and the
  ladder's expensive NN rungs.
* :mod:`repro.robust.chaos` — **data-layer fault injection** (byte
  corruption, NaN columns, adversarial duplicates) extending the PR 1
  executor-level :class:`~repro.parallel.FaultInjector`, to prove the
  guards and the ladder end-to-end. The process-level fault (SIGKILL a
  live worker mid-task) lives on ``FaultInjector`` itself and drives the
  service supervision drills.
* :mod:`repro.robust.diskchaos` — **disk-fault injection**: a seeded
  fault hook (ENOSPC, EIO on write/fsync, short writes, torn writes
  followed by a :class:`SimulatedCrash`, rename failures) in front of
  :mod:`repro.util.durable`, which the spool log, disk cache tier,
  checkpoint journal, and compaction swap all write through, so every
  durability path has a chaos test.
* :mod:`repro.robust.doctor` — **environment self-check** behind
  ``repro doctor``.

The numerical-failure *detectors* live with the numerics they watch
(:mod:`repro.ml.linear.lsq` condition-number checks and ridge/pinv
fallbacks, :mod:`repro.ml.nn.training` divergence detection with bounded
seeded restarts); this package supplies the policy layered on top. Clean
inputs take the exact same code paths as before and remain bit-identical.
"""

from __future__ import annotations

from repro.robust.breaker import CircuitBreaker
from repro.robust.chaos import DataFaultInjector
from repro.robust.diskchaos import DiskFaultInjector, SimulatedCrash
from repro.robust.doctor import DoctorCheck, DoctorReport, run_doctor
from repro.robust.gates import GateCheck, GateResult, ValidationGate
from repro.robust.guards import (
    QUARANTINE_SCHEMA,
    QuarantinedRow,
    QuarantineReport,
    read_records_checked,
    validate_records,
)
from repro.robust.ladder import (
    DEFAULT_RUNGS,
    MEAN_BASELINE,
    DegradationLadder,
    LadderOutcome,
    LadderStep,
    MeanBaselineModel,
    default_ladder,
)

__all__ = [
    "DEFAULT_RUNGS",
    "MEAN_BASELINE",
    "QUARANTINE_SCHEMA",
    "CircuitBreaker",
    "DataFaultInjector",
    "DegradationLadder",
    "DiskFaultInjector",
    "DoctorCheck",
    "DoctorReport",
    "GateCheck",
    "GateResult",
    "LadderOutcome",
    "LadderStep",
    "MeanBaselineModel",
    "QuarantineReport",
    "SimulatedCrash",
    "QuarantinedRow",
    "ValidationGate",
    "default_ladder",
    "read_records_checked",
    "run_doctor",
    "validate_records",
]
