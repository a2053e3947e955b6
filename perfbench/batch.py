"""The three batch workloads: ``dse``, ``chrono`` and ``sim``.

Each workload is a class with the same four steps, driven by ``run.py``:
``setup`` (the set-up ``setup_s`` times), ``run`` (the timed pass),
``check`` (output checks; returns the problems found) and ``close``.
The timed pass calls the public functions of each layer itself, inside
:func:`~perfbench.layers.layer_span`, so a traced pass splits its time by
layer. Every pass starts from cold caches, so an untraced and a traced
pass in one process do the same work.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cache import ResultCache
from repro.core import (
    NINE_MODELS,
    SAMPLED_DSE_MODELS,
    model_builders,
    rank_correlation,
    run_chronological,
    run_sampled_dse,
    sampling_counts,
)
from repro.ml.metrics import summarize_errors
from repro.ml.preprocess import raw_matrix_cache
from repro.ml.selection import estimate_error
from repro.simulator import (
    PRESENTED_APPS,
    SPEC2000_PROFILES,
    design_space_dataset,
    enumerate_design_space,
    generate_trace,
    get_profile,
    simulate_detailed,
    sweep_design_space,
)
from repro.simulator.interval import _miss
from repro.specdata import generate_family_records, records_to_dataset
from repro.util.rng import stream_seed
from repro.util.stats import mean_absolute_percentage_error

from perfbench.host import SpeedMeter
from perfbench.layers import layer_span

#: Holdout repetitions of the paper's error estimate (§3.3).
N_CV_REPS = 5

#: Reduced Table 3: three of the five presented apps at 1% (all five at
#: both rates take ~70 s on a 2-core host; at ~4.7 s an app, three keep a
#: run near 20 s, so the benchmark's repeated runs fit their time budget).
DSE_APPS = PRESENTED_APPS[:3]
DSE_RATE = 0.01
#: Root of the per-app streams that draw each app's sample and holdout
#: splits. NN-E trains until its validation loss stops improving, so its
#: cost follows the data: over samples of one app it varies by over 1.5x,
#: and a seeded sample would make ``wall_s`` measure the sample rather than
#: the code. The sample is therefore the same in every run; ``--seed`` sets
#: the models' seeds (initial weights and internal validation splits).
DSE_DATA_SEED = 2008

#: Table 2 families spanning the training-set sizes of the study: 16, 50
#: and 72 rows in 2005.
CHRONO_FAMILIES = ("pentium-4", "opteron", "xeon")
CHRONO_YEARS = (2005, 2006)

#: Instructions per detailed trace, and configs simulated in detail per app
#: (spread over the rounds).
DETAILED_INSTRUCTIONS = 50_000
DETAILED_CONFIGS_PER_APP = 6
SIM_ROUNDS = 2

#: Configs per profile re-swept with the scalar kernel as a cross-check.
SCALAR_CHECK_CONFIGS = 64


@dataclass
class PassResult:
    """What one timed pass produced.

    ``outputs`` holds every number the pass computed, as plain floats, so
    two passes are bit-identical exactly when their ``outputs`` compare
    equal. ``metrics`` holds per-layer values the pass measured itself
    (ratios, quality numbers); span self times are added by ``run.py``.
    ``raw_s`` is the timed work in host seconds and ``wall_s`` the same
    scaled to the reference host (see :mod:`perfbench.host`); ``laps_s``
    and ``kernel_s`` are the meter's laps and calibration points behind
    them.
    """

    outputs: Any
    attempted: int
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    raw_s: float = 0.0
    laps_s: list[float] = field(default_factory=list)
    kernel_s: list[list[float]] = field(default_factory=list)
    peak_rss_mb: float | None = None
    #: Extra observations for the run's record, not metrics.
    notes: dict[str, Any] = field(default_factory=dict)


def timing(meter: SpeedMeter) -> dict[str, Any]:
    """The timing fields of a :class:`PassResult` whose laps ``meter`` timed."""
    return {"wall_s": sum(meter.scaled()), "raw_s": meter.raw_s,
            "laps_s": list(meter.laps), "kernel_s": meter.points}


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in np.asarray(values, dtype=np.float64).ravel())


class _Encoder:
    """Hit/attempt counter over the encoder's raw-matrix cache for one pass."""

    def __init__(self) -> None:
        cache = raw_matrix_cache()
        cache.clear()
        self._start = (cache.hits, cache.misses)

    def hit_ratio(self) -> float:
        cache = raw_matrix_cache()
        hits = cache.hits - self._start[0]
        attempts = hits + cache.misses - self._start[1]
        return hits / attempts if attempts else 0.0


def _cache_hit_ratio(stores: list[ResultCache]) -> float:
    hits = lookups = 0
    for store in stores:
        s = store.stats()
        hits += s.memory_hits + s.disk_hits
        lookups += s.memory_hits + s.memory_misses
    return hits / lookups if lookups else 0.0


def _select(outcomes: dict[str, tuple[tuple[float, ...], float]]) -> tuple[float, float]:
    """``select``'s pick by max estimated error: (true error, |est - true|)."""
    label = min(outcomes, key=lambda k: max(outcomes[k][0]))
    per_rep, true_err = outcomes[label]
    return true_err, abs(max(per_rep) - true_err)


def fit_models(builders, train, test, rng, score,
               lap: Callable[[], None] = lambda: None,
               ) -> dict[str, tuple[tuple[float, ...], float]]:
    """Holdout-estimate, fit and score each model, as the paper's workflows do.

    Mirrors the per-model loop of ``run_sampled_dse`` and
    ``run_chronological`` step for step (same calls, same draws from
    ``rng``), with a layer span around each call, and calls ``lap`` after
    each estimate and each fit. Returns, per label, the per-repetition
    estimates and the score of the predictions on ``test``.
    """
    out = {}
    for label, builder in builders.items():
        with layer_span("ml.holdout", model=label):
            estimate = estimate_error(builder, train, rng, n_reps=N_CV_REPS)
        lap()
        model = builder()
        with layer_span("ml.fit", model=label):
            model.fit(train)
        with layer_span("ml.predict", label=label):
            predictions = model.predict(test)
        out[label] = (estimate.per_rep, score(predictions, test.target))
        lap()
    return out


def _mape(predictions, target) -> float:
    return mean_absolute_percentage_error(predictions, target)


def _mean_error(predictions, target) -> float:
    return summarize_errors(predictions, target).mean


class Dse:
    """Reduced Table 3: cold sweep, sample, holdout + fit, select, predict."""

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self, traced: bool) -> None:
        self.traced = traced
        self.configs = list(enumerate_design_space())
        self.profiles = {app: get_profile(app) for app in DSE_APPS}

    def task_streams(self, app: str):
        """Sampling/holdout RNG (fixed per app) and model seed of one app."""
        rng = np.random.default_rng(stream_seed(DSE_DATA_SEED, "dse", app))
        return rng, stream_seed(self.seed, "dse-models", app) % 2**31

    def run(self) -> PassResult:
        encoder = _Encoder()
        stores, outputs, select_err, gaps = [], [], [], []
        n_swept = 0
        meter = SpeedMeter(enabled=not self.traced)
        for app in DSE_APPS:
            with layer_span("core.task", workload="dse", app=app):
                _miss.cache_clear()
                stores.append(ResultCache())
                with layer_span("simulator.sweep", app=app):
                    cycles = sweep_design_space(self.configs, self.profiles[app],
                                                cache=stores[-1])
                n_swept += len(cycles)
                with layer_span("simulator.dataset", app=app):
                    space = design_space_dataset(self.configs, cycles)
                meter.lap()
                if app == DSE_APPS[0]:
                    self.check_space = space
                rng, model_seed = self.task_streams(app)
                builders = model_builders(SAMPLED_DSE_MODELS, seed=model_seed)
                sample, _ = space.sample(sampling_counts(space.n_records, DSE_RATE), rng)
                outcomes = fit_models(builders, sample, space, rng, _mape, meter.lap)
                err, gap = _select(outcomes)
                select_err.append(err)
                gaps.append(gap)
                outputs.append((app, _floats(cycles), outcomes))
            meter.lap()
        return PassResult(
            outputs=outputs,
            attempted=len(outputs) * len(SAMPLED_DSE_MODELS),
            **timing(meter),
            metrics={
                "select_err_pct": float(np.mean(select_err)),
                "est_gap_pct": float(np.mean(gaps)),
                "ml.encode_hit_ratio": encoder.hit_ratio(),
                "cache.hit_ratio": _cache_hit_ratio(stores),
                "n_swept_configs": n_swept,
            })

    def check(self, result: PassResult) -> list[str]:
        """The benchmark's own loop must equal ``run_sampled_dse``.

        Checked on the first app with NN-S and LR-B, the cheap models: the
        loop is the same code for every model.
        """
        app, space = DSE_APPS[0], self.check_space
        labels = ("NN-S", "LR-B")
        rng, model_seed = self.task_streams(app)
        builders = model_builders(labels, seed=model_seed)
        sample, _ = space.sample(sampling_counts(space.n_records, DSE_RATE), rng)
        mine = fit_models(builders, sample, space, rng, _mape)
        rng, _ = self.task_streams(app)
        ref = run_sampled_dse(space, builders, DSE_RATE, rng, n_cv_reps=N_CV_REPS)
        problems = []
        for label in labels:
            theirs = (ref.outcomes[label].estimate.per_rep, ref.outcomes[label].true_error)
            if mine[label] != theirs:
                problems.append(f"dse {app} {label}: benchmark loop "
                                f"{mine[label]} != run_sampled_dse {theirs}")
        if _select(mine)[0] != ref.select_true_error:
            problems.append(f"dse {app}: select pick differs")
        problems += _finite("dse", result)
        return problems

    def close(self) -> None:
        pass


class Chrono:
    """Table 2: the nine models fit on 2005 and scored on 2006, per family."""

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.seed = seed

    def setup(self, traced: bool) -> None:
        self.traced = traced

    def family_seed(self, family: str) -> int:
        return stream_seed(self.seed, "chrono", family) % 2**31

    def run(self) -> PassResult:
        encoder = _Encoder()
        outputs, select_err, gaps = [], [], []
        meter = SpeedMeter(enabled=not self.traced)
        for family in CHRONO_FAMILIES:
            seed = self.family_seed(family)
            with layer_span("core.task", workload="chrono", family=family):
                with layer_span("specdata.generate", family=family):
                    records = generate_family_records(family, seed=seed)
                with layer_span("specdata.dataset", family=family):
                    train, test = _year_datasets(records)
                meter.lap()
                builders = model_builders(NINE_MODELS, seed=seed)
                outcomes = fit_models(builders, train, test,
                                      np.random.default_rng(seed), _mean_error, meter.lap)
                err, gap = _select(outcomes)
                select_err.append(err)
                gaps.append(gap)
                outputs.append((family, train.n_records, test.n_records, outcomes))
            meter.lap()
        return PassResult(
            outputs=outputs,
            attempted=len(outputs) * len(NINE_MODELS),
            **timing(meter),
            metrics={
                "select_err_pct": float(np.mean(select_err)),
                "est_gap_pct": float(np.mean(gaps)),
                "ml.encode_hit_ratio": encoder.hit_ratio(),
            })

    def check(self, result: PassResult) -> list[str]:
        """The benchmark's own loop must equal ``run_chronological``.

        Checked on the smallest family with the four LR models.
        """
        family = CHRONO_FAMILIES[0]
        seed = self.family_seed(family)
        labels = NINE_MODELS[:4]
        builders = model_builders(labels, seed=seed)
        records = generate_family_records(family, seed=seed)
        train, test = _year_datasets(records)
        mine = fit_models(builders, train, test, np.random.default_rng(seed), _mean_error)
        ref = run_chronological(family, builders, *CHRONO_YEARS, seed=seed,
                                rng=np.random.default_rng(seed), n_cv_reps=N_CV_REPS,
                                records=records)
        problems = []
        for label in labels:
            theirs = (ref.estimates[label].per_rep, ref.errors[label].mean)
            if mine[label] != theirs:
                problems.append(f"chrono {family} {label}: benchmark loop "
                                f"{mine[label]} != run_chronological {theirs}")
        problems += _finite("chrono", result)
        return problems

    def close(self) -> None:
        pass


def _year_datasets(records) -> tuple:
    """(train, test) datasets of the chronological year pair."""
    return tuple(records_to_dataset([r for r in records if r.year == year], "specint_rate")
                 for year in CHRONO_YEARS)


def _finite(workload: str, result: PassResult) -> list[str]:
    bad = [k for k in ("select_err_pct", "est_gap_pct")
           if not np.isfinite(result.metrics[k])]
    return [f"{workload}: {k} is not finite" for k in bad]


class Sim:
    """Simulator substrate: cold sweeps, disk cache, detailed simulation.

    The work runs in :data:`SIM_ROUNDS` rounds, with the host calibrated
    between them. Every round repeats the sweeps on fresh caches and
    simulates its own share of the stratified detailed sample; the rank
    correlation pools all rounds.
    """

    def __init__(self, seed: int, seconds: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self, traced: bool) -> None:
        self.traced = traced
        self.configs = list(enumerate_design_space())
        self.profiles = {app: get_profile(app) for app in SPEC2000_PROFILES}
        self.cache_dir = Path(tempfile.mkdtemp(prefix="sim-cache-", dir=self.work_dir))

    def stratified(self, app: str, cycles: np.ndarray) -> np.ndarray:
        """One seeded config per equal-count bin of interval cycles."""
        rng = np.random.default_rng(stream_seed(self.seed, "sim-sample", app))
        order = np.argsort(cycles, kind="stable")
        bins = np.array_split(order, DETAILED_CONFIGS_PER_APP)
        return np.array([b[rng.integers(len(b))] for b in bins])

    def run(self) -> PassResult:
        outputs, stores = [], []
        detailed: dict[str, list[tuple[int, float]]] = {a: [] for a in PRESENTED_APPS}
        meter = SpeedMeter(enabled=not self.traced)
        for r in range(SIM_ROUNDS):
            outputs.append(self.round(r, stores, detailed, meter))
        swept = outputs[0]
        rhos = [rank_correlation(np.array([swept[app]["batch"][i] for i, _ in pairs]),
                                 np.array([c for _, c in pairs]))
                for app, pairs in detailed.items()]
        n_detailed = sum(len(pairs) for pairs in detailed.values())
        self.warm_disk_hits = [s.stats().disk_hits for s in stores[1::2]]
        return PassResult(
            outputs=(outputs, detailed),
            attempted=SIM_ROUNDS * (3 * len(self.profiles) + len(PRESENTED_APPS)) + n_detailed,
            **timing(meter),
            metrics={
                "fidelity_rho": float(np.mean(rhos)),
                "cache.hit_ratio": _cache_hit_ratio(stores),
                "n_swept_configs": SIM_ROUNDS * len(self.profiles) * len(self.configs),
                "n_detailed_instructions": n_detailed * DETAILED_INSTRUCTIONS,
            })

    def round(self, r: int, stores: list[ResultCache],
              detailed: dict[str, list[tuple[int, float]]],
              meter: SpeedMeter) -> dict[str, Any]:
        """All twelve sweeps three ways, then round ``r``'s detailed share,
        with a lap after each app's part."""
        cache_dir = self.cache_dir / f"round{r}"
        stores.append(ResultCache(disk_root=cache_dir))
        out: dict[str, Any] = {}
        for app, profile in self.profiles.items():
            with layer_span("core.task", workload="sim", app=app):
                _miss.cache_clear()
                with layer_span("simulator.sweep", app=app):
                    cycles = sweep_design_space(self.configs, profile)
                with layer_span("simulator.dataset", app=app):
                    design_space_dataset(self.configs, cycles)
                _miss.cache_clear()
                with layer_span("cache.cold_write", app=app):
                    cold = sweep_design_space(self.configs, profile, cache=stores[-1])
            out[app] = {"batch": _floats(cycles), "cold": _floats(cold)}
            meter.lap()
        stores.append(ResultCache(disk_root=cache_dir))
        for app, profile in self.profiles.items():
            with layer_span("cache.disk_warm", app=app):
                out[app]["warm"] = _floats(
                    sweep_design_space(self.configs, profile, cache=stores[-1]))
            meter.lap()
        for app in PRESENTED_APPS:
            with layer_span("core.task", workload="sim", app=app):
                with layer_span("simulator.trace_gen", app=app):
                    trace = generate_trace(self.profiles[app], DETAILED_INSTRUCTIONS,
                                           seed=stream_seed(self.seed, "trace", app) % 2**31)
                idx = self.stratified(app, np.array(out[app]["batch"]))[r::SIM_ROUNDS]
                for i in idx:
                    with layer_span("simulator.detailed", app=app):
                        detailed[app].append(
                            (int(i), simulate_detailed(trace, self.configs[i]).cycles))
            meter.lap()
        return out

    def check(self, result: PassResult) -> list[str]:
        """Batch, cold-cached and disk-warm sweeps agree in every round, and
        a seeded subset re-swept with the scalar kernel agrees too."""
        problems = []
        rounds, _ = result.outputs
        if any(out != rounds[0] for out in rounds[1:]):
            problems.append("sim: sweeps differ between rounds")
        rng = np.random.default_rng(stream_seed(self.seed, "sim-check"))
        for app, out in rounds[0].items():
            if not out["batch"] == out["cold"] == out["warm"]:
                problems.append(f"sim {app}: batch, cold-cache and disk-warm sweeps differ")
            subset = np.sort(rng.choice(len(self.configs), SCALAR_CHECK_CONFIGS,
                                        replace=False))
            scalar = sweep_design_space([self.configs[i] for i in subset],
                                        self.profiles[app], method="scalar")
            if _floats(scalar) != tuple(out["batch"][i] for i in subset):
                problems.append(f"sim {app}: scalar and batch sweeps differ")
        if any(hits != len(self.profiles) for hits in self.warm_disk_hits):
            problems.append(f"sim: disk-warm passes hit {self.warm_disk_hits} sweeps "
                            f"on disk, not {len(self.profiles)} each")
        if not -1.0 <= result.metrics["fidelity_rho"] <= 1.0:
            problems.append("sim: fidelity_rho outside [-1, 1]")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
