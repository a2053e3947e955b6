"""Load generation for the job service (DESIGN §12).

The harness splits client traffic into orthogonal pieces:

* :mod:`repro.loadgen.workloads` — *what and when*: seeded synthetic
  traffic shapes (static hot set, phase shift, oscillating, scan) with
  open-loop (Poisson) pacing.
* :mod:`repro.loadgen.runner` — pace a request stream into a target (a
  live or daemonless service spool) and observe every outcome.

The benchmark's ``serve`` workload (``perfbench/serve.py``) drives a live
two-worker service through :func:`run_requests` and
:class:`ServiceTarget`; the cache oracle replays the same traffic shapes.
"""

from repro.loadgen.runner import (
    OUTCOMES,
    LoadResult,
    RequestOutcome,
    ServiceTarget,
    run_requests,
)
from repro.loadgen.workloads import (
    PACING_MODES,
    WORKLOAD_SHAPES,
    ReqGenEngine,
    Request,
    SpecCatalog,
    WorkloadSpec,
    build_requests,
)

__all__ = [
    "OUTCOMES",
    "PACING_MODES",
    "WORKLOAD_SHAPES",
    "LoadResult",
    "ReqGenEngine",
    "Request",
    "RequestOutcome",
    "ServiceTarget",
    "SpecCatalog",
    "WorkloadSpec",
    "build_requests",
    "run_requests",
]
