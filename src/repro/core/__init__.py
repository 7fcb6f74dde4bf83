"""Federated optimization algorithms — the paper's core contribution."""

from .adaptive_mu import AdaptiveMuController
from .baselines import make_distributed_sgd
from .callbacks import Callback, EarlyStopping, LambdaCallback
from ..comms import CommsConfig
from .client import Client, ClientPool, ClientUpdate
from .config import (
    CohortConfig,
    DiagnosticsConfig,
    EngineConfig,
    EvalConfig,
    OptimizationConfig,
    TrainerConfig,
)
from .dissimilarity import (
    DissimilarityReport,
    bounded_variance_b_upper_bound,
    measure_dissimilarity,
)
from .fedavg import make_fedavg
from .feddane import FedDaneTrainer, make_feddane
from .fedprox import BEST_MU, MU_GRID, make_fedprox
from .history import RoundRecord, TrainingHistory
from .sampling import (
    SamplingScheme,
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from .server import FederatedTrainer

__all__ = [
    "FederatedTrainer",
    "TrainerConfig",
    "OptimizationConfig",
    "CohortConfig",
    "CommsConfig",
    "EngineConfig",
    "EvalConfig",
    "DiagnosticsConfig",
    "make_fedavg",
    "make_fedprox",
    "make_feddane",
    "make_distributed_sgd",
    "FedDaneTrainer",
    "MU_GRID",
    "BEST_MU",
    "AdaptiveMuController",
    "Callback",
    "EarlyStopping",
    "LambdaCallback",
    "Client",
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
