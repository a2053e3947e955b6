"""Predictive-modeling layer: datasets, preparation, LR & NN models, error estimates."""

from repro.ml.base import PredictiveModel
from repro.ml.dataset import Column, ColumnRole, Dataset
from repro.ml.linear import LinearRegressionModel
from repro.ml.metrics import ErrorSummary, summarize_errors
from repro.ml.nn import NeuralNetworkModel
from repro.ml.preprocess import Encoder, EncoderReport, MinMaxScaler
from repro.ml.selection import ErrorEstimate, ModelBuilder, estimate_error

__all__ = [
    "PredictiveModel",
    "Column",
    "ColumnRole",
    "Dataset",
    "LinearRegressionModel",
    "ErrorSummary",
    "summarize_errors",
    "NeuralNetworkModel",
    "Encoder",
    "EncoderReport",
    "MinMaxScaler",
    "ErrorEstimate",
    "ModelBuilder",
    "estimate_error",
]
