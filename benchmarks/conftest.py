"""Benchmark fixtures: shared experiment caches and result output.

Each benchmark regenerates one of the paper's tables or figures. The
figure/table pairs share underlying computations (Table 3 aggregates the
Figure 2-6 sweeps; Table 2 aggregates the Figure 7-8 runs), so results are
memoized in session-scoped caches — whichever benchmark runs first pays.

Every regenerated table is printed and also written to
``benchmarks/results/<name>.txt`` so the run leaves a durable record.

Environment knobs:

* ``REPRO_BENCH_FAST=1`` — reduce sampling rates and CV repetitions for a
  quick smoke run (the full ``pytest benchmarks/ --benchmark-only`` run
  took 2 min 51 s on a 2-core x86 host).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import NINE_MODELS, SAMPLED_DSE_MODELS, model_builders, run_chronological, run_rate_sweep
from repro.simulator import (
    design_space_dataset,
    enumerate_design_space,
    get_profile,
    sweep_design_space,
)
from repro.specdata import generate_family_records

SEED = 2008  # the paper's year

RESULTS_DIR = Path(__file__).parent / "results"

FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"

#: Sampling rates of Figures 2-6 / Table 3 (paper: 1%-5%).
RATES = (0.01, 0.03, 0.05) if FAST else (0.01, 0.02, 0.03, 0.04, 0.05)
CV_REPS = 3 if FAST else 5


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a regenerated table and persist it under results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(scope="session")
def design_space():
    return list(enumerate_design_space())


@pytest.fixture(scope="session")
def dse_cache(design_space):
    """app -> list[SampledDseResult] over RATES with the Fig 2-6 models."""
    cache: dict[str, list] = {}

    def get(app: str):
        if app not in cache:
            cycles = sweep_design_space(design_space, get_profile(app))
            space = design_space_dataset(design_space, cycles)
            builders = model_builders(SAMPLED_DSE_MODELS, seed=SEED)
            rng = np.random.default_rng((SEED, 1))
            cache[app] = run_rate_sweep(space, builders, list(RATES), rng,
                                        n_cv_reps=CV_REPS)
        return cache[app]

    return get


@pytest.fixture(scope="session")
def chrono_cache():
    """family -> ChronologicalResult with the nine Figure 7-8 models."""
    cache: dict[str, object] = {}

    def get(family: str):
        if family not in cache:
            records = generate_family_records(family, seed=SEED)
            builders = model_builders(NINE_MODELS, seed=SEED)
            cache[family] = run_chronological(
                family, builders, seed=SEED,
                rng=np.random.default_rng((SEED, 2)),
                n_cv_reps=CV_REPS, records=records,
            )
        return cache[family]

    return get
