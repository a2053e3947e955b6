"""The neural-network predictive model (NN-Q/D/M/P/E/S) behind the common
:class:`~repro.ml.base.PredictiveModel` interface.

Handles Clementine-style preparation internally: inputs are encoded for the
``"nn"`` target (flags 0/1, categoricals one-hot, everything 0–1 scaled) and
the response is range-scaled to [0.15, 0.85] before training, then
inverse-scaled at prediction time.

The saturating hidden layer is not an implementation accident — Clementine
trains (tan-)sigmoid networks on range-scaled data, and a saturated hidden
layer cannot extrapolate beyond the training envelope. That is precisely the
failure the paper observes for neural networks on chronological prediction
(§4.3): 2006 systems are faster than anything in the 2005 training range, so
the network's response flattens where linear regression extrapolates.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import NumericalError
from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset
from repro.ml.nn.importance import input_importances
from repro.ml.nn.lockstep import Steps, run_lockstep
from repro.ml.nn.methods import NN_METHODS, NnBuild, method_steps
from repro.ml.preprocess import Encoder
from repro.obs.metrics import default_registry as _metrics
from repro.util.rng import stream_seed

__all__ = ["NeuralNetworkModel", "TargetScaler"]

#: Bounded seeded restarts on training divergence: when the training method
#: raises a :class:`~repro.errors.NumericalError` (NaN or exploding loss),
#: the build is retried up to this many times with a fresh generator
#: derived from ``(seed, "nn-restart", attempt)``. Attempt 0 always uses
#: ``default_rng(seed)``, so a run that never diverges is bit-identical to
#: one without restarts.
MAX_RESTARTS = 2


class TargetScaler:
    """Affine map of the response into [lo_margin, hi_margin] ⊂ (0, 1)."""

    def __init__(self, margin: float = 0.15) -> None:
        if not (0.0 <= margin < 0.5):
            raise ValueError(f"margin must be in [0, 0.5), got {margin}")
        self.margin = margin
        self._ymin: float | None = None
        self._yspan: float | None = None

    def fit(self, y: np.ndarray) -> "TargetScaler":
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size == 0:
            raise ValueError("cannot fit target scaler on empty array")
        self._ymin = float(y.min())
        span = float(y.max()) - self._ymin
        self._yspan = span if span > 0.0 else 1.0
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        if self._ymin is None or self._yspan is None:
            raise RuntimeError("target scaler is not fit")
        unit = (np.asarray(y, dtype=np.float64) - self._ymin) / self._yspan
        return self.margin + unit * (1.0 - 2.0 * self.margin)

    def inverse(self, y_scaled: np.ndarray) -> np.ndarray:
        if self._ymin is None or self._yspan is None:
            raise RuntimeError("target scaler is not fit")
        unit = (np.asarray(y_scaled, dtype=np.float64) - self.margin) / (1.0 - 2.0 * self.margin)
        return self._ymin + unit * self._yspan


class NeuralNetworkModel(PredictiveModel):
    """A neural network trained by one of the six Clementine methods.

    Parameters
    ----------
    method:
        ``"quick"`` | ``"dynamic"`` | ``"multiple"`` | ``"prune"`` |
        ``"exhaustive"`` | ``"single"``.
    seed:
        Seed for weight initialization and internal validation splits; a
        build that diverges restarts from a derived seed (:data:`MAX_RESTARTS`).
    """

    def __init__(self, method: str = "quick", seed: int = 0) -> None:
        if method not in NN_METHODS:
            raise ValueError(f"method must be one of {sorted(NN_METHODS)}, got {method!r}")
        self.method = method
        self.name = NN_METHODS[method][0]
        self.seed = seed
        self._encoder: Encoder | None = None
        self._scaler: TargetScaler | None = None
        self._build: NnBuild | None = None
        self._train_X: np.ndarray | None = None
        self._train_y_scaled: np.ndarray | None = None

    def fit(self, train: Dataset) -> "NeuralNetworkModel":
        return self.fit_many([self], [train])[0]

    @classmethod
    def fit_many(cls, models: Sequence["NeuralNetworkModel"],
                 datasets: Sequence[Dataset]) -> list["NeuralNetworkModel"]:
        """Fit each model on its dataset, all builds advancing in lockstep
        (:mod:`repro.ml.nn.lockstep`), so their same-step training requests
        train as shared stacks.

        Every model ends exactly as its own ``fit`` would leave it: each
        keeps its seeded restart loop, and a model whose build fails is
        retried, in lockstep with the other retries of that round. When
        models exhaust their restarts, the lowest-index one's error is
        raised, after the models before it are fit.
        """
        prepared = []
        for data in datasets:
            encoder = Encoder(for_model="nn")
            X = encoder.fit_transform(data)
            scaler = TargetScaler().fit(data.target)
            prepared.append((encoder, scaler, X, scaler.transform(data.target)))
        builds: dict[int, NnBuild] = {}
        last: dict[int, NumericalError] = {}
        todo = list(range(len(models)))
        attempt = 0
        while todo:
            outcomes = run_lockstep([models[i]._steps(*prepared[i][2:], attempt) for i in todo])
            retry = []
            for i, outcome in zip(todo, outcomes):
                if isinstance(outcome, NumericalError):
                    last[i] = outcome
                    _metrics().counter("robust.nn.restarts").inc()
                    if attempt < MAX_RESTARTS:
                        retry.append(i)
                else:
                    builds[i] = outcome
            todo, attempt = retry, attempt + 1
        for i, model in enumerate(models):
            if i not in builds:
                cause = last[i]
                raise NumericalError(
                    f"{model.name} training diverged on all "
                    f"{1 + MAX_RESTARTS} seeded attempt(s); last cause: "
                    f"{cause.cause}",
                    cause="nn-restarts-exhausted",
                    context={"attempts": 1 + MAX_RESTARTS, "seed": model.seed,
                             "last_cause": cause.cause, **cause.context},
                ) from cause
            model._build = builds[i]
            model._encoder, model._scaler, model._train_X, model._train_y_scaled = prepared[i]
        return list(models)

    def _steps(self, X: np.ndarray, y: np.ndarray, attempt: int) -> Steps:
        """This model's build on ``(X, y)`` for restart ``attempt``, as a
        request generator."""
        rng = np.random.default_rng(
            self.seed if attempt == 0 else stream_seed(self.seed, "nn-restart", attempt))
        return method_steps(NN_METHODS[self.method][1], X, y, rng)

    def predict(self, data: Dataset) -> np.ndarray:
        self._require_fit(self._build is not None)
        assert self._encoder is not None and self._scaler is not None and self._build is not None
        X = self._encoder.transform(data)
        out = self._build.net.predict(X)
        return self._scaler.inverse(out)

    # -- introspection -------------------------------------------------------

    def importances(self) -> Mapping[str, float]:
        """Sensitivity importances per source column (max over one-hot levels)."""
        self._require_fit(self._build is not None)
        assert (
            self._build is not None
            and self._encoder is not None
            and self._train_X is not None
            and self._train_y_scaled is not None
        )
        per_feature = input_importances(
            self._build.net,
            self._train_X,
            self._train_y_scaled,
            self._encoder.feature_names,
        )
        out: dict[str, float] = {}
        for feat, score in per_feature.items():
            col = self._encoder.feature_to_column(feat)
            out[col] = max(out.get(col, 0.0), score)
        return dict(sorted(out.items(), key=lambda kv: kv[1], reverse=True))

    @property
    def topology(self) -> list[int]:
        """Layer sizes of the trained network."""
        self._require_fit(self._build is not None)
        assert self._build is not None
        return list(self._build.net.layer_sizes)

    @property
    def build_notes(self) -> list[str]:
        """Diagnostics from the training method (growth/prune/restart trace)."""
        self._require_fit(self._build is not None)
        assert self._build is not None
        return list(self._build.notes)
