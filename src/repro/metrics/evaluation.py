"""Standalone evaluation helpers over federated datasets.

These mirror the trainer-internal evaluation in :mod:`repro.core.server`
but operate directly on a model + dataset pair, for use in examples, tests
and the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..datasets.federated import FederatedDataset
from ..models.base import FederatedModel


def federated_train_loss(
    model: FederatedModel, dataset: FederatedDataset, w: np.ndarray
) -> float:
    """Global objective ``f(w) = sum_k p_k F_k(w)`` over training data."""
    model.set_params(w)
    masses = dataset.sample_fractions()
    losses = np.array(
        [model.loss(c.train_x, c.train_y) for c in dataset], dtype=np.float64
    )
    return float(masses @ losses)


def federated_test_accuracy(
    model: FederatedModel, dataset: FederatedDataset, w: np.ndarray
) -> float:
    """Sample-weighted test accuracy across all devices."""
    model.set_params(w)
    correct = 0
    total = 0
    for client in dataset:
        if client.num_test == 0:
            continue
        predictions = model.predict(client.test_x)
        correct += int(np.sum(predictions == client.test_y))
        total += client.num_test
    if total == 0:
        raise ValueError("no test samples anywhere in the federation")
    return correct / total

