"""The common model interface all nine predictive models implement."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from repro.ml.dataset import Dataset

__all__ = ["PredictiveModel"]


class PredictiveModel(ABC):
    """A trainable performance predictor (paper §3).

    Concrete implementations: the four linear-regression methods
    (:class:`repro.ml.linear.LinearRegressionModel`) and the six
    neural-network methods (:class:`repro.ml.nn.NeuralNetworkModel`).

    Models consume :class:`~repro.ml.dataset.Dataset` objects directly and
    do their own Clementine-style preparation internally, so workflow code
    never touches design matrices.
    """

    #: Short display name, e.g. ``"LR-B"`` or ``"NN-E"``.
    name: str = "model"

    @abstractmethod
    def fit(self, train: Dataset) -> "PredictiveModel":
        """Train on ``train`` and return ``self``."""

    @classmethod
    def fit_many(cls, models: Sequence["PredictiveModel"],
                 datasets: Sequence[Dataset]) -> list["PredictiveModel"]:
        """Fit each of ``models`` on its dataset, as ``fit`` on each would,
        and return them. Models whose fits can share work override this."""
        return [model.fit(data) for model, data in zip(models, datasets)]

    @abstractmethod
    def predict(self, data: Dataset) -> np.ndarray:
        """Predict the response for every record of ``data``."""

    def importances(self) -> Mapping[str, float]:
        """Relative importance of each input column in [0, 1] (paper §4.4).

        The default raises; models that support importance analysis
        override this.
        """
        raise NotImplementedError(f"{type(self).__name__} does not report importances")

    def _require_fit(self, fitted: bool) -> None:
        if not fitted:
            raise RuntimeError(f"{self.name} is not fit; call fit() first")

    def __repr__(self) -> str:  # pragma: no cover - formatting
        return f"{type(self).__name__}(name={self.name!r})"
