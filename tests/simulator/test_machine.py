"""Tests for the complete machine, detailed and against the interval path."""

import pytest

from repro.simulator.config import enumerate_design_space
from repro.simulator.interval import evaluate_config
from repro.simulator.machine import simulate_detailed
from repro.simulator.workloads import get_profile


#: Interval-path instruction count of the cross-validation cases.
N_INSTRUCTIONS = 1_000_000


@pytest.fixture(scope="module")
def configs():
    return list(enumerate_design_space())


def _find(configs, **want):
    for c in configs:
        if all(getattr(c, k) == v for k, v in want.items()):
            return c
    raise AssertionError(f"no config with {want}")


class TestInterfaces:
    def test_interval_mode(self, configs):
        r = evaluate_config(configs[0], get_profile("gcc"), 10_000)
        assert r.cycles > 0

    def test_detailed_mode_with_trace(self, configs, trace_cache):
        r = simulate_detailed(trace_cache("gzip", 20_000), configs[0])
        assert r.mode == "detailed"
        assert r.n_instructions == 20_000

    def test_empty_trace_rejected(self, configs, trace_cache):
        tr = trace_cache("gzip", 20_000).slice(0, 0)
        with pytest.raises(ValueError):
            simulate_detailed(tr, configs[0])


class TestDetailedBehaviour:
    def test_bigger_caches_reduce_misses(self, configs, trace_cache):
        tr = trace_cache("gcc")
        base = dict(l1i_size=32 * 1024, l1d_line=32, l2_size=256 * 1024,
                    l2_assoc=4, l3_size=0, branch_predictor="bimodal",
                    width=4, issue_wrongpath=False, itlb_size=256 * 1024)
        small = simulate_detailed(tr, _find(configs, l1d_size=16 * 1024, **base))
        big = simulate_detailed(tr, _find(configs, l1d_size=64 * 1024, **base))
        assert big.l1d_miss_rate < small.l1d_miss_rate

    def test_perfect_predictor_never_misses(self, configs, trace_cache):
        tr = trace_cache("gcc")
        cfg = _find(configs, branch_predictor="perfect")
        r = simulate_detailed(tr, cfg)
        assert r.branch_mispredict_rate == 0.0

    def test_predictor_quality_ordering_detailed(self, configs, trace_cache):
        # combining <= bimodal on every app; 2level <= bimodal for apps whose
        # pattern branches dominate their cold-start handicap.
        base = dict(l1d_size=32 * 1024, l1i_size=32 * 1024, l1d_line=32,
                    l2_size=256 * 1024, l2_assoc=4, l3_size=0, width=4,
                    issue_wrongpath=False, itlb_size=256 * 1024)
        for app in ("applu", "mcf", "equake"):
            tr = trace_cache(app, 150_000)  # predictors need warmup room
            rates = {
                bp: simulate_detailed(
                    tr, _find(configs, branch_predictor=bp, **base)
                ).branch_mispredict_rate
                for bp in ("bimodal", "2level", "combining")
            }
            assert rates["combining"] <= rates["bimodal"] + 0.01, app
            assert rates["2level"] < rates["bimodal"], app

    def test_mcf_memory_bound_vs_applu(self, configs, trace_cache):
        cfg = configs[100]
        mcf = simulate_detailed(trace_cache("mcf"), cfg)
        applu = simulate_detailed(trace_cache("applu"), cfg)
        assert mcf.cpi > 2 * applu.cpi
        assert mcf.l1d_miss_rate > applu.l1d_miss_rate


class TestCrossValidation:
    """The closed-form fast path must track the detailed reference model."""

    # Spatial runs in the generated streams inherit their initiator's reuse
    # distance, amplifying deep-reuse mass by ~1/(1-spatial_seq) relative to
    # the closed form; tolerances below reflect each app's spatial share.
    @pytest.mark.parametrize("app,rel,abs_tol", [
        ("gcc", 1.2, 0.05), ("mcf", 0.6, 0.10),
        ("applu", 3.5, 0.04), ("mesa", 1.8, 0.05)])
    def test_l1d_miss_rates_agree(self, app, rel, abs_tol, configs, trace_cache):
        tr = trace_cache(app)
        cfg = _find(configs, l1d_size=32 * 1024, l1d_line=32,
                    branch_predictor="bimodal", width=4)
        det = simulate_detailed(tr, cfg)
        fast = evaluate_config(cfg, get_profile(app), N_INSTRUCTIONS)
        close_rel = abs(det.l1d_miss_rate - fast.l1d_miss_rate) <= rel * fast.l1d_miss_rate
        close_abs = abs(det.l1d_miss_rate - fast.l1d_miss_rate) <= abs_tol
        assert close_rel or close_abs, (app, det.l1d_miss_rate, fast.l1d_miss_rate)

    @pytest.mark.parametrize("app", ["gcc", "mcf"])
    def test_cpi_same_magnitude(self, app, configs, trace_cache):
        tr = trace_cache(app)
        cfg = _find(configs, l1d_size=32 * 1024, l1d_line=32,
                    branch_predictor="bimodal", width=4, l3_size=0)
        det = simulate_detailed(tr, cfg)
        fast = evaluate_config(cfg, get_profile(app), N_INSTRUCTIONS)
        ratio = det.cpi / fast.cpi
        assert 0.3 < ratio < 3.0, (app, det.cpi, fast.cpi)

    def test_both_paths_agree_on_config_ordering(self, configs, trace_cache):
        # The fast path exists to *rank* configs; best/worst must agree
        # directionally with the detailed model for a memory-bound app.
        tr = trace_cache("mcf")
        prof = get_profile("mcf")
        base = dict(l1d_size=32 * 1024, l1d_line=32, l2_assoc=4,
                    branch_predictor="bimodal", width=4,
                    issue_wrongpath=False, itlb_size=256 * 1024,
                    l1i_size=32 * 1024)
        weak = _find(configs, l2_size=256 * 1024, l3_size=0, **base)
        strong = _find(configs, l2_size=1024 * 1024, l3_size=8 * 1024 * 1024, **base)
        det_weak, det_strong = simulate_detailed(tr, weak), simulate_detailed(tr, strong)
        fast_weak = evaluate_config(weak, prof, N_INSTRUCTIONS)
        fast_strong = evaluate_config(strong, prof, N_INSTRUCTIONS)
        assert det_strong.cpi < det_weak.cpi
        assert fast_strong.cpi < fast_weak.cpi
