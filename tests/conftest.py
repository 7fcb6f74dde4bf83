"""Shared fixtures for the test suite."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.callbacks import Callback
from repro.core.client import ClientPool
from repro.datasets import ClientData, FederatedDataset, make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import parallel


class InProcessWorkers(list):
    """Stands in for a ``ParallelExecutor``'s worker processes, installed as
    its ``_workers``: one fake duplex connection per worker.  Every message
    and reply still crosses a pickle boundary, but the worker's answer
    (``parallel._reply``, over ``parallel._WORKER``) is computed here.
    ``messages`` holds the pickled messages of the last call that sent any."""

    def __init__(self, n_workers):
        super().__init__(_InProcessConnection(self) for _ in range(n_workers))
        self.messages = []
        self.replied = True

    @classmethod
    def install(cls, executor):
        executor._workers = cls(executor.n_workers - 1)
        return executor


class _InProcessConnection:
    def __init__(self, workers):
        self.workers = workers
        self.reply = None

    def send(self, message):
        if self.workers.replied:  # the first message of a new call
            self.workers.messages, self.workers.replied = [], False
        blob = pickle.dumps(message)
        self.workers.messages.append(blob)
        self.reply = pickle.dumps(parallel._reply(pickle.loads(blob)))

    def recv(self):
        self.workers.replied = True
        return pickle.loads(self.reply)

    def stop(self, kill):
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


class EachRound(Callback):
    """Calls ``fn(record)`` after every round; a truthy result stops the run."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def on_round_end(self, record) -> bool:
        return bool(self.fn(record))


def make_pool(clients, model, solver=None, name="toy") -> ClientPool:
    """A pool over a hand-built list of :class:`ClientData` (a slice, a
    re-ordering, repeats): the federation of exactly those devices."""
    return ClientPool(
        FederatedDataset(name, clients=list(clients)),
        model,
        solver or SGDSolver(0.01),
    )


# The per-device oracles the old per-device wrapper carried, frozen as
# they stood: one ``set_params`` and one forward per call, on device
# ``cid`` of a pool.  ``device_values`` is held to them with ``==``.
def frozen_train_loss(pool, cid, w):
    """The local training loss ``F_k(w)``."""
    data = pool[cid]
    pool.model.set_params(w)
    return pool.model.loss(data.train_x, data.train_y)


def frozen_train_gradient(pool, cid, w):
    """The local full-batch gradient ``∇F_k(w)``."""
    data = pool[cid]
    pool.model.set_params(w)
    return pool.model.gradient(data.train_x, data.train_y)


def frozen_test_metrics(pool, cid, w):
    """``(num_correct, num_test)`` on device ``cid``'s held-out data."""
    data = pool[cid]
    if data.num_test == 0:
        return 0, 0
    pool.model.set_params(w)
    predictions = pool.model.predict(data.test_x)
    correct = int(np.sum(predictions == data.test_y))
    return correct, data.num_test


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
