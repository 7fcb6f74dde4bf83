"""Shared fixtures for the test suite."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import ClientData, FederatedDataset, make_synthetic
from repro.models import MultinomialLogisticRegression


class InProcessPool:
    """Stands in for the process pool: every message still crosses a
    pickle boundary both ways, but the worker function runs here."""

    def __init__(self):
        self.messages = []

    def map(self, fn, messages):
        self.messages = [pickle.dumps(message) for message in messages]
        return [
            pickle.loads(pickle.dumps(fn(pickle.loads(blob))))
            for blob in self.messages
        ]

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)


def make_toy_client(
    client_id: int,
    n_train: int = 24,
    n_test: int = 8,
    dim: int = 6,
    num_classes: int = 3,
    seed: int = 0,
    shift: float = 0.0,
) -> ClientData:
    """A small linearly-structured client dataset.

    ``shift`` displaces the client's input distribution, creating
    statistical heterogeneity between clients.
    """
    gen = np.random.default_rng(seed)
    W = gen.normal(size=(dim, num_classes))
    X_train = gen.normal(loc=shift, size=(n_train, dim))
    X_test = gen.normal(loc=shift, size=(n_test, dim))
    y_train = (X_train @ W).argmax(axis=1)
    y_test = (X_test @ W).argmax(axis=1)
    return ClientData(
        client_id=client_id,
        train_x=X_train,
        train_y=y_train,
        test_x=X_test,
        test_y=y_test,
    )


@pytest.fixture
def toy_dataset() -> FederatedDataset:
    """Six-device federation over a 6-d 3-class linear problem."""
    clients = [
        make_toy_client(i, seed=100 + i, shift=0.3 * i) for i in range(6)
    ]
    return FederatedDataset(
        name="toy", clients=clients, num_classes=3, input_dim=6
    )


@pytest.fixture
def toy_model() -> MultinomialLogisticRegression:
    """Logistic model matching :func:`toy_dataset`."""
    return MultinomialLogisticRegression(dim=6, num_classes=3)


@pytest.fixture
def synthetic_small() -> FederatedDataset:
    """A small instance of the paper's Synthetic(1,1)."""
    return make_synthetic(1.0, 1.0, num_devices=8, seed=7, size_cap=80)
