"""Clementine-style data preparation (paper §3.4).

The paper describes three preparation behaviours that materially shape the
results, and all three are replicated here:

1. **Range scaling** — "Clementine software automatically scales the input
   data to the range 0-1 to prevent the effect of scales of different
   parameters." :class:`MinMaxScaler` does this per feature, fit on training
   data only.
2. **Model-specific field handling** — "The linear regression methods expect
   the input parameters to be numerical … some … are mapped to numeric
   values. For some other input parameters this kind of transformation is
   not possible, hence these are omitted." Flags are mapped to 0/1 for both
   model families. Categorical ("set") fields whose levels all parse as
   numbers are coerced for linear regression; genuinely symbolic fields
   (e.g. branch-predictor type) are *omitted* for linear regression but
   one-hot encoded for neural networks.
3. **Constant-field elimination** — "Clementine omits some predictor
   variables because these input parameters do not have any variation."
   Constant columns are dropped during ``fit``.
4. **Identifier elimination** — Clementine marks set fields with too many
   distinct members as *typeless* and excludes them from modeling. We drop
   categorical columns whose level count exceeds
   ``max(8, IDENTIFIER_FRACTION x n_records)``: a field with nearly one
   level per record (e.g. the SPEC announcement's free-text system name)
   is an identifier, not a predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.ml.dataset import ColumnRole, Dataset
from repro.obs import phase as _obs_phase

__all__ = ["MinMaxScaler", "Encoder", "EncoderReport", "raw_matrix_cache"]

EncoderTarget = Literal["linear", "nn"]

#: Only datasets at least this large go through the raw-matrix cache; for
#: smaller ones (per-rep holdout halves) fingerprinting costs more than the
#: Python-loop encoding it would save.
_RAW_CACHE_MIN_RECORDS = 256

_RAW_MATRIX_CACHE = None

#: A categorical column with more levels than ``max(8, IDENTIFIER_FRACTION
#: x n_records)`` is an identifier and is dropped (item 4 above).
IDENTIFIER_FRACTION = 0.5


def _raw_matrix_cache():
    """Process-wide LRU of unscaled design matrices, keyed by (data, plan)."""
    global _RAW_MATRIX_CACHE
    if _RAW_MATRIX_CACHE is None:
        from repro.cache.memory import LRUCache

        _RAW_MATRIX_CACHE = LRUCache(max_entries=32)
    return _RAW_MATRIX_CACHE


def raw_matrix_cache():
    """Public accessor (stats/clear) for the encoder's raw-matrix cache."""
    return _raw_matrix_cache()


class MinMaxScaler:
    """Per-feature scaling to [0, 1] fit on training data.

    Test-time values outside the training range extrapolate linearly (they
    are *not* clipped): chronological prediction deliberately feeds
    next-year systems whose clocks exceed anything seen in training, and
    clipping would erase exactly the signal being extrapolated.
    Constant features map to 0.0.
    """

    def __init__(self) -> None:
        self.lo_: np.ndarray | None = None
        self.span_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got {X.ndim}-D")
        if X.shape[0] == 0:
            raise ValueError("cannot fit scaler on empty matrix")
        self.lo_ = X.min(axis=0)
        span = X.max(axis=0) - self.lo_
        span[span == 0.0] = 1.0  # constant features map to 0
        self.span_ = span
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.lo_ is None or self.span_ is None:
            raise RuntimeError("scaler is not fit")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.lo_.shape[0]:
            raise ValueError(
                f"expected shape (*, {self.lo_.shape[0]}), got {X.shape}"
            )
        return (X - self.lo_) / self.span_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass(frozen=True)
class EncoderReport:
    """What the encoder kept and why it dropped the rest."""

    feature_names: tuple[str, ...]
    dropped_constant: tuple[str, ...]
    dropped_symbolic: tuple[str, ...]
    dropped_identifier: tuple[str, ...]


def _numeric_levels(values: np.ndarray) -> np.ndarray | None:
    """Try to coerce categorical level strings to floats; None if impossible."""
    out = np.empty(values.shape[0], dtype=np.float64)
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except (TypeError, ValueError):
            return None
    return out


class Encoder:
    """Turn a :class:`Dataset` into a numeric design matrix for one model family.

    Parameters
    ----------
    for_model:
        ``"linear"`` — numeric + flag + numerically-coercible categorical
        columns; symbolic categoricals are omitted (recorded in the report).
        ``"nn"`` — everything is kept; symbolic categoricals are one-hot
        encoded with one indicator per training-time level.

    Every kept column is then scaled to [0, 1] by a :class:`MinMaxScaler`
    fit on the training data, as Clementine always does.
    """

    def __init__(self, for_model: EncoderTarget) -> None:
        if for_model not in ("linear", "nn"):
            raise ValueError(f"for_model must be 'linear' or 'nn', got {for_model!r}")
        self.for_model = for_model
        self._plan: list[tuple[str, str, tuple[str, ...]]] | None = None
        self._scaler: MinMaxScaler | None = None
        self._report: EncoderReport | None = None

    # -- fitting -----------------------------------------------------------

    def fit(self, dataset: Dataset) -> "Encoder":
        """Decide the per-column encoding plan from training data."""
        with _obs_phase("encode", op="fit", for_model=self.for_model,
                        n_records=dataset.n_records):
            return self._fit(dataset)

    def _fit(self, dataset: Dataset) -> "Encoder":
        plan: list[tuple[str, str, tuple[str, ...]]] = []
        dropped_constant: list[str] = []
        dropped_symbolic: list[str] = []
        dropped_identifier: list[str] = []
        max_levels = max(8, int(IDENTIFIER_FRACTION * dataset.n_records))
        for col in dataset.columns:
            if col.is_constant:
                dropped_constant.append(col.name)
                continue
            if col.role is ColumnRole.NUMERIC:
                plan.append((col.name, "numeric", ()))
            elif col.role is ColumnRole.FLAG:
                plan.append((col.name, "flag", ()))
            else:
                levels = tuple(sorted(set(col.values.tolist())))
                if len(levels) > max_levels:
                    dropped_identifier.append(col.name)  # typeless field
                elif _numeric_levels(col.values) is not None:
                    plan.append((col.name, "coerce", ()))
                elif self.for_model == "nn":
                    plan.append((col.name, "onehot", levels))
                else:
                    dropped_symbolic.append(col.name)
        if not plan:
            raise ValueError("no usable predictor columns after preparation")
        self._plan = plan
        feature_names: list[str] = []
        for name, kind, levels in plan:
            if kind == "onehot":
                feature_names.extend(f"{name}={lvl}" for lvl in levels)
            else:
                feature_names.append(name)
        self._report = EncoderReport(
            feature_names=tuple(feature_names),
            dropped_constant=tuple(dropped_constant),
            dropped_symbolic=tuple(dropped_symbolic),
            dropped_identifier=tuple(dropped_identifier),
        )
        self._scaler = MinMaxScaler().fit(self._raw_matrix(dataset))
        return self

    # -- transformation ----------------------------------------------------

    def _raw_matrix(self, dataset: Dataset) -> np.ndarray:
        """Unscaled design matrix for the fitted plan, cached for big inputs.

        The raw matrix depends only on (dataset contents, plan) — not on the
        scaler or which training part this encoder was fit on — so when many
        models encode the same large dataset (every model predicting the full
        4608-point design space, every rate) the matrix is built once and
        served as a defensive copy thereafter. Small datasets (per-rep
        holdout halves) skip the cache: fingerprinting them costs more than
        re-encoding.
        """
        assert self._plan is not None
        if dataset.n_records < _RAW_CACHE_MIN_RECORDS:
            return self._build_raw_matrix(dataset)
        from repro.cache import is_enabled, stable_fingerprint

        if not is_enabled():
            return self._build_raw_matrix(dataset)
        key = stable_fingerprint((dataset.fingerprint(), self._plan))
        cached = _raw_matrix_cache().get(key)
        if cached is not None:
            return cached.copy()
        X = self._build_raw_matrix(dataset)
        _raw_matrix_cache().put(key, X.copy())
        return X

    def _build_raw_matrix(self, dataset: Dataset) -> np.ndarray:
        blocks: list[np.ndarray] = []
        for name, kind, levels in self._plan:
            col = dataset.column(name)
            if kind == "numeric":
                blocks.append(col.values.astype(np.float64)[:, None])
            elif kind == "flag":
                blocks.append(col.values.astype(np.float64)[:, None])
            elif kind == "coerce":
                coerced = _numeric_levels(col.values)
                if coerced is None:
                    raise ValueError(
                        f"column {name!r} was numeric-coercible at fit time but is not now"
                    )
                blocks.append(coerced[:, None])
            else:  # onehot
                vals = col.values
                block = np.zeros((len(col), len(levels)), dtype=np.float64)
                for j, lvl in enumerate(levels):
                    block[:, j] = vals == lvl
                blocks.append(block)
        return np.hstack(blocks)

    def transform(self, dataset: Dataset) -> np.ndarray:
        """Encode a dataset with the plan learned at ``fit`` time."""
        if self._plan is None:
            raise RuntimeError("encoder is not fit")
        with _obs_phase("encode", op="transform", for_model=self.for_model,
                        n_records=dataset.n_records):
            return self._scaler.transform(self._raw_matrix(dataset))

    def fit_transform(self, dataset: Dataset) -> np.ndarray:
        return self.fit(dataset).transform(dataset)

    # -- introspection -----------------------------------------------------

    @property
    def report(self) -> EncoderReport:
        if self._report is None:
            raise RuntimeError("encoder is not fit")
        return self._report

    @property
    def feature_names(self) -> list[str]:
        return list(self.report.feature_names)

    def feature_to_column(self, feature_name: str) -> str:
        """Map an encoded feature name back to its source column."""
        return feature_name.split("=", 1)[0]
