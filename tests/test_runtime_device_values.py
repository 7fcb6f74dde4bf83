"""The one per-device measurement: ``device_values`` against the frozen
per-device oracles.

Every store a federation can sit on, every quantity, any list of devices
(any order, any subset, devices with no held-out rows) and block sizes of
1, 7 and the default: the values are ``==`` the frozen per-device bodies
(``array_equal`` for gradients), each listed device is read once, and the
stacked correct counts take exactly ``ceil(rows / block)`` forwards per run
of same-shape held-out rows.  The per-client census over them equals the
reference global loss and accuracy (one forward per device) with ``==``.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientPool
from repro.datasets import (
    FederatedDataset,
    MmapShardStore,
    make_synthetic,
    make_synthetic_ondemand,
)
from repro.datasets.federated import ClientData
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import STACKED_EVAL_BLOCK, FederationEvaluator
from repro.runtime.evaluation import device_values

from tests.conftest import (
    frozen_test_metrics,
    frozen_train_gradient,
    frozen_train_loss,
    make_pool,
)

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

N = 12
SOLVER = SGDSolver(0.1, batch_size=8)


class Counting:
    """Which block size a model asks for and the rows of each ``predict``."""

    block_rows = None
    stacked = True

    @property
    def supports_stacked_eval(self):
        return self.stacked

    @property
    def stacked_eval_block_rows(self):
        return self.block_rows

    def predict(self, X):
        self.predicted.append((len(X), X.shape[1:], X.dtype))
        return super().predict(X)


class CountingLogReg(Counting, MultinomialLogisticRegression):
    pass


class WidthBlind:
    """Deterministic loss, gradient and labels on rows of any shape."""

    def set_params(self, w):
        self.w = np.array(w, dtype=np.float64)

    def _score(self, X):
        return X.reshape(len(X), -1).sum(axis=1, dtype=np.float64) * self.w[0]

    def loss(self, X, y):
        return float(np.mean((self._score(X) - y) ** 2))

    def gradient(self, X, y):
        rows = X.reshape(len(X), -1).sum(axis=1, dtype=np.float64)
        return np.array([np.mean(2 * (self._score(X) - y) * rows)])

    def predict(self, X):
        return (self._score(X) > 0.5).astype(np.int64)


class CountingWidthBlind(Counting, WidthBlind):
    pass


def _without_test_rows(dataset, every=3):
    """``dataset``'s clients, every ``every``-th without held-out rows."""
    return [
        ClientData(
            c.client_id, c.train_x, c.train_y,
            c.test_x[:0] if c.client_id % every == 0 else c.test_x,
            c.test_y[:0] if c.client_id % every == 0 else c.test_y,
        )
        for c in dataset
    ]


class ListPool(list):
    """Devices in a plain list, with the ``model`` that ``device_values``
    reads beside them: a pool no store could pack (see :func:`_ragged`)."""

    def __init__(self, clients, model):
        super().__init__(clients)
        self.model = model


def _ragged():
    """Held-out rows whose shape and dtype change from device to device."""
    rng = np.random.default_rng(0)
    spec = [  # (train rows, test rows, row shape, dtype)
        (4, 2, (3,), np.float64), (5, 3, (2,), np.float64),
        (3, 2, (3,), np.float64), (6, 0, (2,), np.float64),
        (4, 5, (3,), np.float64), (2, 1, (2,), np.float64),
        (3, 4, (3,), np.float32), (5, 9, (2, 2), np.float64),
    ]
    clients = []
    for k, (n, m, shape, dtype) in enumerate(spec):
        x = rng.normal(size=(n + m,) + shape).astype(dtype)
        y = rng.integers(0, 2, size=n + m)
        clients.append(ClientData(k, x[:n], y[:n], x[n:], y[n:]))
    return clients


@pytest.fixture(scope="module")
def federations(tmp_path_factory):
    """name -> (client pool, model, the store behind it or None)."""
    packed = make_synthetic(1.0, 1.0, num_devices=N, seed=5, size_cap=60)
    mmap_dir = tmp_path_factory.mktemp("shards")
    MmapShardStore.pack(packed, mmap_dir, clients_per_shard=4)
    sources = {
        "packed": packed,
        "hand-built": FederatedDataset(
            "hand-built", _without_test_rows(packed), packed.num_classes
        ),
        "ondemand": make_synthetic_ondemand(
            1.0, 1.0, num_devices=N, seed=5, size_cap=60, min_samples=10
        ),
        "mmap": FederatedDataset(
            "mmap", num_classes=10, input_dim=60,
            store=MmapShardStore(mmap_dir, max_open_shards=1),
        ),
    }
    out = {}
    for name, dataset in sources.items():
        model = CountingLogReg(dim=60, num_classes=10)
        out[name] = (ClientPool(dataset, model, SOLVER), model, dataset.store)
    model = CountingLogReg(dim=60, num_classes=10)
    pool = make_pool(_without_test_rows(packed, every=4), model, SOLVER)
    out["list"] = (pool, model, pool.dataset.store)
    model = CountingWidthBlind()
    out["ragged"] = (ListPool(_ragged(), model), model, None)
    return out


class Reads:
    """A client pool that logs every index it is asked for."""

    def __init__(self, clients):
        self.clients, self.model, self.log = clients, clients.model, []

    def __getitem__(self, cid):
        self.log.append(cid)
        return self.clients[cid]


def _expected_blocks(clients, devices, block):
    """``predict`` row counts: ``ceil(rows / block)`` per same-shape run."""
    runs = []  # [kind, rows]
    for cid in devices:
        x = clients[cid].test_x
        if not len(x):
            continue
        kind = (x.shape[1:], x.dtype)
        if runs and runs[-1][0] == kind:
            runs[-1][1] += len(x)
        else:
            runs.append([kind, len(x)])
    return [
        (min(block, rows - lo),) + kind
        for kind, rows in runs
        for lo in range(0, rows, block)
    ]


def federated_train_loss(model, dataset, w):
    """The reference global objective ``f(w) = sum_k p_k F_k(w)``: one
    ``set_params`` and one forward per device, in device order."""
    model.set_params(w)
    masses = dataset.sample_fractions()
    losses = np.array(
        [model.loss(c.train_x, c.train_y) for c in dataset], dtype=np.float64
    )
    return float(masses @ losses)


def federated_test_accuracy(model, dataset, w):
    """The reference held-out accuracy: correct over held-out rows, summed
    device by device."""
    model.set_params(w)
    correct = total = 0
    for client in dataset:
        if client.num_test:
            correct += int(np.sum(model.predict(client.test_x) == client.test_y))
            total += client.num_test
    return correct / total


def _weights(model, seed):
    n = getattr(model, "n_params", 1)
    return 0.3 * np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("quantity", ["loss", "gradient", "correct"])
@pytest.mark.parametrize(
    "name", ["packed", "hand-built", "ondemand", "mmap", "list", "ragged"]
)
@settings(max_examples=25, deadline=None)
@given(
    block=st.sampled_from([1, 7, None]),
    stacked=st.booleans(),
    picks=st.lists(st.integers(0, N - 1), unique=True, max_size=N),
    seed=st.integers(0, 3),
)
def test_device_values_equal_the_frozen_oracles(
    federations, name, quantity, block, stacked, picks, seed
):
    clients, model, store = federations[name]
    devices = [cid for cid in picks if cid < len(clients)]
    model.block_rows, model.stacked, model.predicted = block, stacked, []
    w = _weights(model, seed)
    oracle = {
        "loss": frozen_train_loss,
        "gradient": frozen_train_gradient,
        "correct": lambda pool, cid, w: frozen_test_metrics(pool, cid, w)[0],
    }[quantity]
    expected = [oracle(clients, cid, w) for cid in devices]
    blocks = _expected_blocks(clients, devices, block or STACKED_EVAL_BLOCK)

    model.predicted = []
    reads = Reads(clients)
    lazy = getattr(store, "lazy", False)
    with mock.patch.object(store, "get", wraps=store.get) if lazy else nullcontext():
        values = device_values(reads, w, quantity, devices)
        gets = [call.args[0] for call in store.get.call_args_list] if lazy else None

    assert reads.log == devices
    if lazy:
        assert gets == devices
    assert len(values) == len(devices)
    if quantity == "gradient":
        for value, want in zip(values, expected):
            assert np.array_equal(value, want)
    else:
        assert values == expected
        assert all(type(v) is (float if quantity == "loss" else int) for v in values)
    if quantity != "correct":
        assert model.predicted == []
    elif stacked:
        assert model.predicted == blocks
    else:
        assert len(model.predicted) == sum(
            1 for cid in devices if clients[cid].num_test
        )


@pytest.mark.parametrize("block", [1, 7, None])
def test_a_change_of_row_shape_or_dtype_starts_a_block(federations, block):
    """Rowless devices cut nothing; the float32 device is a run of its own."""
    clients, model, _ = federations["ragged"]
    model.block_rows, model.stacked = block, True
    w = _weights(model, 0)
    devices = [0, 2, 3, 4, 1, 5, 6, 7]
    expected = [frozen_test_metrics(clients, cid, w)[0] for cid in devices]
    model.predicted = []
    assert device_values(clients, w, "correct", devices) == expected
    kinds = [((3,), np.float64)] * 9 + [((2,), np.float64)] * 4
    kinds += [((3,), np.float32)] * 4 + [((2, 2), np.float64)] * 9
    rows = [(n,) + kind for n, kind in _block_rows(kinds, block or STACKED_EVAL_BLOCK)]
    assert model.predicted == rows


def _block_rows(kinds, block):
    """Cut a row-by-row list of kinds into ``(rows, kind)`` blocks."""
    out = []
    for kind in kinds:
        if out and out[-1][1] == kind and out[-1][0] < block:
            out[-1][0] += 1
        else:
            out.append([1, kind])
    return [(n, kind) for n, kind in out]


def test_unknown_quantity_is_rejected(federations):
    clients, model, _ = federations["packed"]
    with pytest.raises(ValueError, match="quantity"):
        device_values(clients, _weights(model, 0), "accuracy", [0])


def test_no_devices_read_nothing(federations):
    clients, model, _ = federations["packed"]
    reads = Reads(clients)
    assert device_values(reads, _weights(model, 0), "loss", []) == []
    assert reads.log == []


@pytest.mark.parametrize("name", ["packed", "hand-built", "ondemand", "mmap", "list"])
def test_the_per_client_census_equals_the_reference(federations, name):
    clients, model, _ = federations[name]
    model.block_rows, model.stacked, model.predicted = None, True, []
    evaluator = FederationEvaluator(clients, model, "per_client")
    w = _weights(model, 2)
    assert evaluator.train_loss(w) == federated_train_loss(model, clients.dataset, w)
    assert evaluator.test_accuracy(w) == federated_test_accuracy(
        model, clients.dataset, w
    )


def test_a_lazy_per_client_census_forwards_blocks_not_devices():
    """5000 on-demand devices: the held-out census takes
    ``ceil(rows / block)`` forwards, not one per device."""
    dataset = make_synthetic_ondemand(
        1.0, 1.0, num_devices=5000, seed=2, size_cap=20, min_samples=10
    )
    model = CountingLogReg(dim=60, num_classes=10)
    model.predicted = []
    evaluator = FederationEvaluator(
        ClientPool(dataset, model, SOLVER), model, "per_client"
    )
    w = _weights(model, 1)
    accuracy = evaluator.test_accuracy(w)
    rows = int(dataset.test_sizes.sum())
    assert len(model.predicted) == -(-rows // STACKED_EVAL_BLOCK) < 5000
    assert accuracy == federated_test_accuracy(
        MultinomialLogisticRegression(dim=60, num_classes=10), dataset, w
    )
