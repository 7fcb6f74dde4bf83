"""Evaluation metrics and the paper's convergence/divergence criteria."""

from .convergence import (
    CONVERGENCE_TOL,
    DIVERGENCE_JUMP,
    DIVERGENCE_WINDOW,
    RunOutcome,
    accuracy_at_outcome,
    classify_run,
)
from .evaluation import federated_test_accuracy, federated_train_loss

__all__ = [
    "classify_run",
    "accuracy_at_outcome",
    "RunOutcome",
    "CONVERGENCE_TOL",
    "DIVERGENCE_WINDOW",
    "DIVERGENCE_JUMP",
    "federated_train_loss",
    "federated_test_accuracy",
]
