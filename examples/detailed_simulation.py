#!/usr/bin/env python
"""Drive the detailed simulator directly: traces, caches, SimPoint.

Shows the substrate beneath the surrogate models:

1. generate a synthetic SPEC-like instruction trace,
2. run it through the full detailed machine (caches, TLBs, predictor,
   out-of-order pipeline) on two contrasting configurations,
3. pick SimPoint representative intervals and show that simulating only
   those (with warmup) reproduces the full-trace cycle count,
4. compare against the closed-form interval model.

Run: ``python examples/detailed_simulation.py [app] [n_instructions]``
(default: gcc 150000)
"""

import sys
import time

import numpy as np

from repro.simulator import (
    choose_simpoints,
    enumerate_design_space,
    estimate_cycles,
    evaluate_config,
    generate_trace,
    get_profile,
    simulate_detailed,
    simulate_point,
)

INTERVAL = 5_000


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 150_000
    profile = get_profile(app)
    configs = list(enumerate_design_space())
    weak = min(configs, key=lambda c: (c.l1d_size + c.l2_size + c.l3_size, c.width))
    strong = max(configs, key=lambda c: (c.l1d_size + c.l2_size + c.l3_size, c.width))

    print(f"Generating {n:,}-instruction {app} trace "
          f"(branches {profile.mix_fraction('branch'):.0%}, "
          f"memory {profile.mix_fraction('load') + profile.mix_fraction('store'):.0%})")
    t0 = time.time()
    trace = generate_trace(profile, n, seed=1, interval_length=INTERVAL)
    print(f"  done in {time.time() - t0:.1f}s\n")

    for label, cfg in (("weak", weak), ("strong", strong)):
        t0 = time.time()
        det = simulate_detailed(trace, cfg)
        fast = evaluate_config(cfg, profile, n)
        print(f"{label:6s} {cfg.short_label()}")
        print(f"  detailed: CPI {det.cpi:5.2f}  L1D miss {det.l1d_miss_rate:6.2%}  "
              f"L1I miss {det.l1i_miss_rate:6.2%}  "
              f"mispredict {det.branch_mispredict_rate:6.2%}  [{time.time() - t0:.1f}s]")
        print(f"  interval: CPI {fast.cpi:5.2f}  (closed form, microseconds)\n")

    # SimPoint: simulate a handful of representative intervals instead.
    cfg = configs[100]
    full = simulate_detailed(trace, cfg)
    points = choose_simpoints(trace, max_k=8, rng=np.random.default_rng(1))
    n_intervals = int(trace.interval_id[-1]) + 1
    per = np.zeros(n_intervals)
    t0 = time.time()
    for p in points:
        per[p.interval] = simulate_point(trace, p, INTERVAL, cfg)
    est = estimate_cycles(per, points, n_intervals)
    frac = len(points) / n_intervals
    print(f"SimPoint on {cfg.short_label()}:")
    print(f"  {len(points)} representative intervals of {n_intervals} "
          f"({frac:.0%} of the trace), chosen by BBV k-means")
    print(f"  full-trace cycles     : {full.cycles:12,.0f}")
    print(f"  SimPoint extrapolation: {est:12,.0f} "
          f"({100 * abs(est - full.cycles) / full.cycles:.1f}% off, "
          f"[{time.time() - t0:.1f}s])")


if __name__ == "__main__":
    main()
