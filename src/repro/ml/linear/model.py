"""The four linear-regression predictive models (LR-E, LR-S, LR-F, LR-B).

Wraps the selection procedures of :mod:`repro.ml.linear.stepwise` behind the
:class:`~repro.ml.base.PredictiveModel` interface, with Clementine-style
preparation (numeric-only fields, 0–1 scaling) handled internally.

Also exposes the *standardized beta coefficients* the paper uses to rank
predictor importance for linear models (§4.4: "processor speed and memory
size with standardized beta coefficients of 0.915 and 0.119").
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Dataset
from repro.ml.linear.features import degree2_feature_names, expand_degree2
from repro.ml.linear.stepwise import (
    SelectionResult,
    select_backward,
    select_enter,
    select_forward,
    select_stepwise,
)
from repro.ml.preprocess import Encoder

__all__ = ["LinearRegressionModel", "LR_METHODS"]

#: Clementine method name -> (paper label, selection function)
LR_METHODS: dict[str, tuple[str, Callable[[np.ndarray, np.ndarray], SelectionResult]]] = {
    "enter": ("LR-E", select_enter),
    "stepwise": ("LR-S", select_stepwise),
    "forward": ("LR-F", select_forward),
    "backward": ("LR-B", select_backward),
}


class LinearRegressionModel(PredictiveModel):
    """Least-squares regression with one of four predictor-selection methods.

    Parameters
    ----------
    method:
        ``"enter"`` | ``"stepwise"`` | ``"forward"`` | ``"backward"``, with
        SPSS's partial-F thresholds (:mod:`repro.ml.linear.stepwise`).
    interactions:
        Expand the design matrix with squares and pairwise products before
        selection (Lee & Brooks-style non-linear regression; an extension
        beyond the paper's Clementine models). Pair with ``forward`` or
        ``stepwise`` — backward elimination over the ~p²/2 expanded terms
        is slow and degenerate for small samples.
    """

    def __init__(
        self,
        method: str = "enter",
        interactions: bool = False,
    ) -> None:
        if method not in LR_METHODS:
            raise ValueError(
                f"method must be one of {sorted(LR_METHODS)}, got {method!r}"
            )
        self.method = method
        self.name = LR_METHODS[method][0] + ("+int" if interactions else "")
        self.interactions = interactions
        self._feature_names: list[str] | None = None
        self._encoder: Encoder | None = None
        self._result: SelectionResult | None = None
        self._fallback_mean: float | None = None
        self._std_betas: dict[str, float] | None = None

    # -- training ----------------------------------------------------------

    def fit(self, train: Dataset) -> "LinearRegressionModel":
        encoder = Encoder(for_model="linear")
        X = encoder.fit_transform(train)
        names = list(encoder.feature_names)
        if self.interactions:
            X = expand_degree2(X)
            names = degree2_feature_names(names)
        y = train.target
        result = LR_METHODS[self.method][1](X, y)
        self._encoder = encoder
        self._feature_names = names
        self._result = result
        self._fallback_mean = float(y.mean())
        self._std_betas = self._standardized_betas(X, y, result, names)
        return self

    @staticmethod
    def _standardized_betas(
        X: np.ndarray, y: np.ndarray, result: SelectionResult, names: list[str]
    ) -> dict[str, float]:
        if result.fit is None:
            return {}
        sy = float(y.std())
        if sy == 0.0:
            return {names[j]: 0.0 for j in result.selected}
        betas: dict[str, float] = {}
        for coef, j in zip(result.fit.coef, result.selected):
            sx = float(X[:, j].std())
            betas[names[j]] = float(coef * sx / sy)
        return betas

    # -- prediction ----------------------------------------------------------

    def predict(self, data: Dataset) -> np.ndarray:
        self._require_fit(self._encoder is not None)
        assert self._encoder is not None and self._result is not None
        X = self._encoder.transform(data)
        if self.interactions:
            X = expand_degree2(X)
        if self._result.fit is None:
            # Nothing significant: intercept-only model.
            assert self._fallback_mean is not None
            return np.full(data.n_records, self._fallback_mean)
        return self._result.fit.predict(X[:, list(self._result.selected)])

    # -- introspection -------------------------------------------------------

    @property
    def selected_features(self) -> list[str]:
        """Names of retained predictors (empty until fit)."""
        if self._result is None or self._feature_names is None:
            return []
        return [self._feature_names[j] for j in self._result.selected]

    @property
    def standardized_betas(self) -> Mapping[str, float]:
        """Standardized beta per retained predictor (the paper's LR importance)."""
        self._require_fit(self._std_betas is not None)
        assert self._std_betas is not None
        return dict(self._std_betas)

    def importances(self) -> Mapping[str, float]:
        """|standardized beta| aggregated per source column.

        Expanded terms (``a*b``, ``a^2``) credit their first base column.
        """
        out: dict[str, float] = {}
        assert self._encoder is not None
        for feat, beta in self.standardized_betas.items():
            base = feat.split("*", 1)[0].split("^", 1)[0]
            col = self._encoder.feature_to_column(base)
            out[col] = max(out.get(col, 0.0), abs(beta))
        return out

    @property
    def r_squared(self) -> float:
        """Training R² of the selected model (0.0 for intercept-only)."""
        self._require_fit(self._result is not None)
        assert self._result is not None
        return self._result.fit.r_squared if self._result.fit else 0.0

    @property
    def selection_history(self) -> list[str]:
        """Add/drop trace from the selection procedure."""
        self._require_fit(self._result is not None)
        assert self._result is not None
        return list(self._result.history)
