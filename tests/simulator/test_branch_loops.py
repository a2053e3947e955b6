"""The inline predictor loops of ``simulate_predictor`` equal the
``predict``/``update`` methods, flags and final tables alike."""

import numpy as np
import pytest

from repro.simulator.branch import (
    BimodalPredictor,
    CombiningPredictor,
    TwoLevelPredictor,
    simulate_predictor,
)

#: Small tables, so that a few dozen branch PCs alias entries of every one.
SMALL = {
    "bimodal": lambda: BimodalPredictor(table_size=16),
    "2level": lambda: TwoLevelPredictor(history_bits=4, l1_size=8, table_size=32),
    "combining": lambda: CombiningPredictor(history_bits=3, table_size=64,
                                            chooser_size=8),
    "bimodal-default": BimodalPredictor,
    "2level-default": TwoLevelPredictor,
    "combining-default": CombiningPredictor,
}


def _stream(seed, n=3000):
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, 1 << 22, 48).astype(np.uint64) * np.uint64(4)
    # Biased sites plus some coin flips, so counters move both ways.
    p_taken = np.where(rng.random(48) < 0.3, 0.5, rng.random(48))
    site = rng.integers(0, 48, n)
    return sites[site], rng.random(n) < p_taken[site]


def _method_flags(p, pcs, taken):
    flags = []
    for pc, t in zip(pcs.tolist(), taken.tolist()):
        flags.append(p.predict(pc) != t)
        p.update(pc, t)
    return np.array(flags, dtype=bool)


def _tables(p):
    if isinstance(p, CombiningPredictor):
        return (p.chooser, *_tables(p.bimodal), *_tables(p.twolevel))
    if isinstance(p, TwoLevelPredictor):
        return (p.table, p.histories)
    return (p.table,)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", sorted(SMALL))
def test_inline_loop_matches_methods(kind, seed):
    pcs, taken = _stream(seed)
    fast, ref = SMALL[kind](), SMALL[kind]()
    got = simulate_predictor(fast, pcs, taken)
    want = _method_flags(ref, pcs, taken)
    assert got.dtype == bool
    assert np.array_equal(got, want)
    assert _tables(fast) == _tables(ref)
    # A second stream continues from the trained tables.
    pcs, taken = _stream(seed + 100)
    assert np.array_equal(simulate_predictor(fast, pcs, taken),
                          _method_flags(ref, pcs, taken))
    assert _tables(fast) == _tables(ref)


def test_subclass_keeps_its_methods():
    class AlwaysTaken(BimodalPredictor):
        def predict(self, pc):
            return True

    pcs, taken = _stream(0)
    assert np.array_equal(simulate_predictor(AlwaysTaken(), pcs, taken), ~taken)
