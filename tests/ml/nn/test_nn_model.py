"""Tests for NeuralNetworkModel and TargetScaler."""

import numpy as np
import pytest

from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.ml.nn.model import NeuralNetworkModel, TargetScaler


def _ds(n=120, seed=0, clock_hi=3000.0):
    rng = np.random.default_rng(seed)
    clock = rng.uniform(1000, clock_hi, n)
    cache = rng.uniform(256, 2048, n)
    bp = rng.choice(["bimodal", "perfect"], n)
    y = 0.01 * clock + 0.003 * cache + np.where(bp == "perfect", 8.0, 0.0)
    return Dataset(
        [
            Column("clock", ColumnRole.NUMERIC, clock),
            Column("cache", ColumnRole.NUMERIC, cache),
            Column("bp", ColumnRole.CATEGORICAL, bp),
        ],
        y + rng.normal(0, 0.05, n),
    )


class TestTargetScaler:
    def test_round_trip(self):
        y = np.array([10.0, 20.0, 35.0])
        sc = TargetScaler().fit(y)
        np.testing.assert_allclose(sc.inverse(sc.transform(y)), y, rtol=1e-12)

    def test_range_is_margined(self):
        y = np.array([1.0, 2.0])
        sc = TargetScaler().fit(y)
        out = sc.transform(y)
        assert out.min() == pytest.approx(0.15)
        assert out.max() == pytest.approx(0.85)

    def test_constant_target_handled(self):
        sc = TargetScaler().fit(np.array([5.0, 5.0]))
        out = sc.transform(np.array([5.0]))
        assert np.isfinite(out).all()

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            TargetScaler().transform(np.array([1.0]))


class TestNeuralNetworkModel:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            NeuralNetworkModel("deep")

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            NeuralNetworkModel().predict(_ds())

    def test_fits_mixed_type_data(self):
        ds = _ds()
        train, test = ds.take(range(90)), ds.take(range(90, 120))
        model = NeuralNetworkModel("quick", seed=1).fit(train)
        err = np.abs(model.predict(test) - test.target) / test.target
        assert err.mean() < 0.05

    def test_seed_reproducibility(self):
        ds = _ds()
        a = NeuralNetworkModel("single", seed=5).fit(ds).predict(ds)
        b = NeuralNetworkModel("single", seed=5).fit(ds).predict(ds)
        np.testing.assert_array_equal(a, b)

    def test_extrapolation_saturates(self):
        # The chronological failure mechanism: predictions flatten outside
        # the training envelope because hidden units saturate.
        train = _ds(clock_hi=2000.0)
        model = NeuralNetworkModel("quick", seed=2).fit(train)
        far = _ds(n=30, seed=9, clock_hi=8000.0)
        preds = model.predict(far)
        # Bounded well below a linear extrapolation of the true trend.
        assert preds.max() < far.target.max()

    def test_topology_reported(self):
        model = NeuralNetworkModel("quick", seed=1).fit(_ds())
        topo = model.topology
        assert topo[0] >= 3 and topo[-1] == 1

    def test_importances_rank_signal_over_noise(self):
        ds = _ds()
        model = NeuralNetworkModel("quick", seed=1).fit(ds)
        imp = model.importances()
        assert set(imp) <= {"clock", "cache", "bp"}
        assert imp["clock"] > 0.0

    def test_build_notes_available(self):
        model = NeuralNetworkModel("multiple", seed=1).fit(_ds())
        assert model.build_notes
