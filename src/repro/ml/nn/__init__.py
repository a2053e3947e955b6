"""Neural-network models (NN-Q/D/M/P/E/S) and their machinery."""

from repro.ml.nn.activations import LINEAR, SIGMOID, TANH, Activation, get_activation
from repro.ml.nn.importance import input_importances
from repro.ml.nn.methods import NN_METHODS, NnBuild
from repro.ml.nn.model import NeuralNetworkModel, TargetScaler
from repro.ml.nn.network import MLP
from repro.ml.nn.pruning import (
    PruneOutcome,
    hidden_unit_sensitivities,
    input_sensitivities,
)
from repro.ml.nn.training import (
    TrainingConfig,
    TrainingResult,
    holdout_split,
    train,
    train_stack,
)

__all__ = [
    "LINEAR",
    "SIGMOID",
    "TANH",
    "Activation",
    "get_activation",
    "input_importances",
    "NN_METHODS",
    "NnBuild",
    "NeuralNetworkModel",
    "TargetScaler",
    "MLP",
    "PruneOutcome",
    "hidden_unit_sensitivities",
    "input_sensitivities",
    "TrainingConfig",
    "TrainingResult",
    "holdout_split",
    "train",
    "train_stack",
]
