"""Federated optimization algorithms — the paper's core contribution."""

from .adaptive_mu import AdaptiveMuController
from .callbacks import Callback, EarlyStopping, LambdaCallback
from ..comms import CommsConfig
from .client import ClientPool, ClientUpdate
from .config import EvalConfig
from .dissimilarity import (
    DissimilarityReport,
    bounded_variance_b_upper_bound,
    measure_dissimilarity,
)
from .feddane import FedDaneTrainer
from .history import RoundRecord, TrainingHistory
from .sampling import (
    SamplingScheme,
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from .server import FederatedTrainer

__all__ = [
    "FederatedTrainer",
    "CommsConfig",
    "EvalConfig",
    "FedDaneTrainer",
    "AdaptiveMuController",
    "Callback",
    "EarlyStopping",
    "LambdaCallback",
    "ClientPool",
    "ClientUpdate",
    "SamplingScheme",
    "UniformSamplingWeightedAverage",
    "WeightedSamplingSimpleAverage",
    "TrainingHistory",
    "RoundRecord",
    "DissimilarityReport",
    "measure_dissimilarity",
    "bounded_variance_b_upper_bound",
]
