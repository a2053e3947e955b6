"""The SimpleScalar-analogue CPU simulator substrate.

Two evaluation paths share one set of workload models:

* **interval** (:func:`repro.simulator.evaluate_config`) — closed-form CPI
  from reuse-distance / branch-class distributions; used for full
  design-space sweeps (4608 configs in milliseconds).
* **detailed** (:func:`repro.simulator.simulate_detailed`) — synthetic
  traces through table-based caches/TLBs/predictors and a scoreboard
  out-of-order pipeline; the reference model the fast path is validated
  against.
"""

from repro.simulator.analytic import PREDICTORS, mispredict_rate, miss_rate, tlb_miss_rate
from repro.simulator.branch import (
    BimodalPredictor,
    BranchPredictor,
    CombiningPredictor,
    PerfectPredictor,
    TwoLevelPredictor,
    make_predictor,
    simulate_predictor,
)
from repro.simulator.cache import Cache, CacheStats
from repro.simulator.config import (
    DESIGN_SPACE_SIZE,
    MicroarchConfig,
    PREDICTOR_RANK,
    design_space_dataset,
    enumerate_design_space,
)
from repro.simulator.batch import (
    BatchResult,
    ConfigBlock,
    evaluate_design_space_batch,
    pack_design_space,
)
from repro.simulator.interval import (
    DEFAULT_LATENCIES,
    IntervalResult,
    Latencies,
    evaluate_config,
    sweep_design_space,
)
from repro.simulator.isa import FU_CLASSES, OP_LATENCY, OpClass, Trace
from repro.simulator.machine import SimulationResult, simulate_detailed
from repro.simulator.pipeline import PipelineResult, simulate_pipeline
from repro.simulator.simpoint import (
    SimPoint,
    basic_block_vectors,
    choose_simpoints,
    estimate_cycles,
    kmeans,
    simulate_point,
)
from repro.simulator.tlb import Tlb, TlbStats
from repro.simulator.trace import TraceGenerator, generate_trace
from repro.simulator.workloads import (
    PRESENTED_APPS,
    SPEC2000_PROFILES,
    BranchBehavior,
    IlpBehavior,
    MemoryBehavior,
    ReuseComponent,
    WorkloadProfile,
    get_profile,
)

__all__ = [
    "PREDICTORS", "mispredict_rate", "miss_rate", "tlb_miss_rate",
    "BimodalPredictor", "BranchPredictor", "CombiningPredictor",
    "PerfectPredictor", "TwoLevelPredictor", "make_predictor", "simulate_predictor",
    "Cache", "CacheStats",
    "DESIGN_SPACE_SIZE", "MicroarchConfig", "PREDICTOR_RANK",
    "design_space_dataset", "enumerate_design_space",
    "DEFAULT_LATENCIES", "IntervalResult", "Latencies",
    "evaluate_config", "sweep_design_space",
    "BatchResult", "ConfigBlock", "evaluate_design_space_batch",
    "pack_design_space",
    "FU_CLASSES", "OP_LATENCY", "OpClass", "Trace",
    "SimulationResult", "simulate_detailed",
    "PipelineResult", "simulate_pipeline",
    "SimPoint", "basic_block_vectors", "choose_simpoints", "estimate_cycles", "kmeans", "simulate_point",
    "Tlb", "TlbStats",
    "TraceGenerator", "generate_trace",
    "PRESENTED_APPS", "SPEC2000_PROFILES", "BranchBehavior", "IlpBehavior",
    "MemoryBehavior", "ReuseComponent", "WorkloadProfile", "get_profile",
]
