"""Slices of the shared Table-1 block: codes packed once, results unchanged.

A slice shares its parent's per-component key rows and views its codes, so
evaluating it must give the exact floats of the same configs packed on their
own (which codes them afresh).
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.simulator import evaluate_design_space_batch, get_profile, pack_design_space
from repro.simulator.batch import _table1_block


def _random_slices(n_space: int, n: int = 24) -> list[tuple[int, int]]:
    rng = np.random.default_rng(20261019)
    bounds = []
    for length in rng.choice([1, 2, 5, 8, 13, 64, 300, 512, 1500], size=n):
        start = int(rng.integers(0, n_space - length + 1))
        bounds.append((start, start + int(length)))
    return bounds + [(0, n_space), (n_space - 1, n_space)]


@pytest.mark.parametrize("app", ["gcc", "mcf", "swim"])
def test_slices_match_independently_packed_configs(design_space, app):
    profile = get_profile(app)
    block = _table1_block()
    for start, stop in _random_slices(len(design_space)):
        # Copies are not the shared configs, so they take the generic pack.
        alone = pack_design_space([dataclasses.replace(c)
                                   for c in design_space[start:stop]])
        got = evaluate_design_space_batch(block.slice(start, stop), profile,
                                          components=True)
        want = evaluate_design_space_batch(alone, profile, components=True)
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), \
                (start, stop, f.name)


def test_slice_shares_rows_and_views_codes():
    block = _table1_block()
    part = block.slice(100, 900).slice(10, 20)
    for name, ix in part.index.items():
        parent = block.index[name]
        assert ix.levels is parent.levels
        assert np.shares_memory(ix.codes, parent.codes)
        assert np.array_equal(ix.codes, parent.codes[110:120])


def test_table1_codes_are_read_only():
    for levels, codes in _table1_block().index.values():
        assert not levels.flags.writeable and not codes.flags.writeable


def test_pickle_ships_columns_and_recodes_on_arrival():
    block = _table1_block().slice(0, 700)
    copy = pickle.loads(pickle.dumps(block))
    assert "index" not in copy.__dict__
    for name, ix in copy.index.items():
        want = block.index[name]
        assert np.array_equal(ix.levels[ix.codes], want.levels[want.codes]), name
