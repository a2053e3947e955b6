"""Tests for repeated-holdout error estimation."""

import numpy as np
import pytest

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.ml.selection import ErrorEstimate, estimate_error


class _ConstantModel(PredictiveModel):
    """Predicts a fixed multiple of the true mean (controllable error)."""

    def __init__(self, factor: float, name: str = "const"):
        self.factor = factor
        self.name = name
        self._mean = None

    def fit(self, train):
        self._mean = float(train.target.mean())
        return self

    def predict(self, data):
        return np.full(data.n_records, self._mean * self.factor)


def _ds(n=60):
    rng = np.random.default_rng(0)
    return Dataset(
        [Column("x", ColumnRole.NUMERIC, rng.random(n))],
        np.full(n, 100.0) + rng.normal(0, 1.0, n),
    )


class TestErrorEstimate:
    def test_mean_and_max(self):
        est = ErrorEstimate("m", (1.0, 3.0, 2.0))
        assert est.mean == pytest.approx(2.0)
        assert est.max == pytest.approx(3.0)

    def test_value_dispatch(self):
        est = ErrorEstimate("m", (1.0, 3.0))
        assert est.value("max") == 3.0
        assert est.value("mean") == 2.0
        with pytest.raises(ValueError):
            est.value("median")


class TestEstimateError:
    def test_rep_count(self, rng):
        est = estimate_error(lambda: _ConstantModel(1.0), _ds(), rng, n_reps=5)
        assert len(est.per_rep) == 5

    def test_biased_model_sees_its_bias(self, rng):
        est = estimate_error(lambda: _ConstantModel(1.10), _ds(), rng, n_reps=5)
        assert est.mean == pytest.approx(10.0, abs=1.5)

    def test_good_model_low_error(self, rng):
        est = estimate_error(lambda: _ConstantModel(1.0), _ds(), rng, n_reps=5)
        assert est.mean < 2.0

    def test_max_at_least_mean(self, rng):
        est = estimate_error(lambda: _ConstantModel(1.05), _ds(), rng, n_reps=5)
        assert est.max >= est.mean

    def test_rejects_zero_reps(self, rng):
        with pytest.raises(ValueError):
            estimate_error(lambda: _ConstantModel(1.0), _ds(), rng, n_reps=0)

    def test_model_name_captured(self, rng):
        est = estimate_error(lambda: _ConstantModel(1.0, "MY"), _ds(), rng)
        assert est.model_name == "MY"


class TestHoistedPreparationBitIdentity:
    """The fast record-selection path is pinned against the seed semantics.

    The seed implementation re-ran column validation/conversion inside every
    holdout repetition (each ``take`` rebuilt every column through
    ``Column.__post_init__``) and materialized both split halves before
    dispatch. Those passes are now hoisted — derived columns skip
    re-validation and splits ship as index pairs — which provably cannot
    change any value. These tests re-run the seed recipe and require exact
    equality.
    """

    def _seed_take(self, ds, idx):
        """The seed ``Dataset.take``: full re-validation of every column."""
        from repro.ml.dataset import Column, Dataset

        idx = np.asarray(idx)
        return Dataset(
            [Column(c.name, c.role, c.values[idx]) for c in ds.columns],
            ds.target[idx],
            ds.target_name,
        )

    def _mixed_ds(self):
        rng = np.random.default_rng(7)
        return Dataset([
            Column("a", ColumnRole.NUMERIC, rng.normal(size=40)),
            Column("b", ColumnRole.NUMERIC, rng.uniform(1, 9, size=40)),
            Column("f", ColumnRole.FLAG, rng.integers(0, 2, size=40).astype(bool)),
            Column("c", ColumnRole.CATEGORICAL,
                   np.array([("x", "y", "z")[i % 3] for i in range(40)])),
        ], rng.uniform(1.0, 2.0, size=40))

    def test_take_matches_seed_take_exactly(self):
        ds = self._mixed_ds()
        idx = np.array([0, 3, 3, 17, 39, 5])
        fast, seed = ds.take(idx), self._seed_take(ds, idx)
        assert np.array_equal(fast.target, seed.target)
        for name in ds.column_names:
            a, b = fast.column(name), seed.column(name)
            assert a.role is b.role
            assert a.values.dtype == b.values.dtype
            assert np.array_equal(a.values, b.values)

    def test_estimate_error_matches_seed_loop_exactly(self):
        """Seed recipe: datasets materialized via re-validating take, per rep."""
        from repro.util.stats import mean_absolute_percentage_error

        ds = self._mixed_ds()
        builder = lambda: _ConstantModel(1.05)  # noqa: E731

        def seed_estimate(rng):
            errors = []
            for _ in range(5):
                sel, rest = ds.random_split_indices(0.5, rng)
                fit_part = self._seed_take(ds, sel)
                eval_part = self._seed_take(ds, rest)
                model = builder()
                model.fit(fit_part)
                errors.append(mean_absolute_percentage_error(
                    model.predict(eval_part), eval_part.target))
            return tuple(errors)

        seed = seed_estimate(np.random.default_rng(42))
        current = estimate_error(builder, ds, np.random.default_rng(42), n_reps=5)
        assert current.per_rep == seed

    def test_random_split_consumes_one_draw_like_seed(self):
        """Split via indices leaves the rng stream exactly where seed did."""
        ds = self._mixed_ds()
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        sel, rest = ds.random_split_indices(0.5, rng_a)
        assert ds.take(sel).n_records + ds.take(rest).n_records == ds.n_records
        n_sel = max(min(int(round(0.5 * ds.n_records)), ds.n_records - 1), 1)
        perm = rng_b.permutation(ds.n_records)  # the seed's single draw
        assert n_sel == 20 and perm.shape == (40,)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
