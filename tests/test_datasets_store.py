"""Client store layer: eager/mmap/on-demand parity and cache behavior."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.datasets import (
    DEFAULT_CACHE_CLIENTS,
    EagerClientStore,
    FederatedDataset,
    MmapShardStore,
    OnDemandSyntheticStore,
    make_synthetic,
    make_synthetic_ondemand,
    resolve_store,
)
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver

from .conftest import make_toy_client


def make_trainer(dataset, seed=0, **kwargs):
    return FederatedTrainer(
        dataset=dataset,
        model=MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes
        ),
        solver=SGDSolver(0.05, batch_size=10),
        mu=1.0,
        clients_per_round=5,
        epochs=2,
        seed=seed,
        **kwargs,
    )


def history_series(history):
    return (
        [r.train_loss for r in history.records],
        [r.test_accuracy for r in history.records],
    )


class TestEagerStore:
    def test_wraps_existing_clients_bit_identically(self):
        dataset = make_synthetic(1.0, 1.0, num_devices=20, seed=3)
        store = EagerClientStore(list(dataset))
        assert not store.lazy
        assert len(store) == 20
        for i in (0, 7, 19):
            assert store.get(i) is dataset[i]
        np.testing.assert_array_equal(store.train_sizes, dataset.train_sizes)
        np.testing.assert_array_equal(store.test_sizes, dataset.test_sizes)

    def test_resolve_store_passthrough(self):
        clients = [make_toy_client(i, seed=i) for i in range(4)]
        store = EagerClientStore(clients)
        assert resolve_store(store) is store
        wrapped = resolve_store(clients)
        assert isinstance(wrapped, EagerClientStore)
        assert wrapped.get(2) is clients[2]


class TestOnDemandStore:
    def test_regeneration_is_deterministic(self):
        a = OnDemandSyntheticStore(1.0, 1.0, num_devices=50, seed=9)
        b = OnDemandSyntheticStore(1.0, 1.0, num_devices=50, seed=9)
        for cid in (0, 13, 49):
            ca, cb = a.get(cid), b.get(cid)
            np.testing.assert_array_equal(ca.train_x, cb.train_x)
            np.testing.assert_array_equal(ca.train_y, cb.train_y)
            np.testing.assert_array_equal(ca.test_x, cb.test_x)
            np.testing.assert_array_equal(ca.test_y, cb.test_y)

    def test_sizes_metadata_matches_materialized_clients(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=30, seed=5)
        for cid in range(30):
            client = store.get(cid)
            assert client.num_train == store.train_sizes[cid]
            assert client.num_test == store.test_sizes[cid]

    def test_seed_changes_data(self):
        a = OnDemandSyntheticStore(1.0, 1.0, num_devices=10, seed=1)
        b = OnDemandSyntheticStore(1.0, 1.0, num_devices=10, seed=2)
        assert not np.array_equal(a.get(0).train_x, b.get(0).train_x)

    def test_lru_cache_counters(self):
        store = OnDemandSyntheticStore(
            1.0, 1.0, num_devices=10, seed=0, cache_clients=4
        )
        for cid in range(10):
            store.get(cid)
        info = store.cache_info()
        assert info["misses"] == 10
        assert info["evictions"] == 6
        store.get(9)  # still cached
        assert store.cache_info()["hits"] == 1

    def test_default_cache_budget(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=5, seed=0)
        assert store.cache_info()["maxsize"] == DEFAULT_CACHE_CLIENTS

    def test_pickle_roundtrip_drops_cache(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=12, seed=4)
        before = store.get(3)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.cache_info()["size"] == 0
        after = clone.get(3)
        np.testing.assert_array_equal(before.train_x, after.train_x)

    def test_factory_builds_lazy_dataset(self):
        dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=40, seed=2)
        assert dataset.is_lazy
        assert dataset.num_devices == 40
        assert "Synthetic-OD" in dataset.name
        stats = dataset.stats()
        assert stats.devices == 40

    def test_eviction_never_changes_training_history(self):
        """An LRU too small to hold the cohort must not perturb training."""
        series = []
        for cache in (2, 64):
            dataset = make_synthetic_ondemand(
                1.0, 1.0, num_devices=30, seed=6, cache_clients=cache
            )
            trainer = make_trainer(dataset, seed=1)
            history = trainer.run(3)
            trainer.close()
            series.append(history_series(history))
        assert series[0] == series[1]


class TestMmapShardStore:
    @pytest.fixture
    def packed(self, tmp_path):
        source = make_synthetic(1.0, 1.0, num_devices=25, seed=8)
        directory = tmp_path / "shards"
        MmapShardStore.pack(
            source,
            directory,
            clients_per_shard=7,
            name=source.name,
            num_classes=source.num_classes,
            input_dim=source.input_dim,
        )
        return source, MmapShardStore(directory)

    def test_roundtrip_equals_eager_arrays(self, packed):
        source, store = packed
        assert store.lazy
        assert len(store) == len(source)
        for cid in range(len(source)):
            eager, lazy = source[cid], store.get(cid)
            np.testing.assert_array_equal(eager.train_x, lazy.train_x)
            np.testing.assert_array_equal(eager.train_y, lazy.train_y)
            np.testing.assert_array_equal(eager.test_x, lazy.test_x)
            np.testing.assert_array_equal(eager.test_y, lazy.test_y)

    def test_sizes_come_from_index_not_materialization(self, packed):
        source, store = packed
        np.testing.assert_array_equal(store.train_sizes, source.train_sizes)
        np.testing.assert_array_equal(store.test_sizes, source.test_sizes)

    def test_pickle_reopens_handles(self, packed):
        _, store = packed
        store.get(0)
        clone = pickle.loads(pickle.dumps(store))
        np.testing.assert_array_equal(
            clone.get(11).train_x, store.get(11).train_x
        )

    def test_training_history_matches_eager_dataset(self, packed):
        # Both runs pin per-client evaluation: lazy datasets resolve to it
        # automatically, and the comparison must isolate the store from
        # the stacked-vs-looped reduction-order difference (~1e-15).
        source, store = packed
        lazy_dataset = FederatedDataset.from_store(
            source.name, store, source.num_classes, source.input_dim
        )
        histories = []
        for dataset in (source, lazy_dataset):
            trainer = make_trainer(
                dataset, seed=2,
                evaluation=EvalConfig(mode="per_client"),
            )
            history = trainer.run(3)
            trainer.close()
            histories.append(history_series(history))
        assert histories[0] == histories[1]


class TestDatasetStoreIntegration:
    def test_eager_dataset_requires_clients_or_store(self):
        with pytest.raises(ValueError):
            FederatedDataset("x", clients=None, num_classes=2)

    def test_clients_and_store_are_exclusive(self):
        clients = [make_toy_client(0)]
        store = EagerClientStore(clients)
        with pytest.raises(ValueError):
            FederatedDataset(
                "x", clients=clients, num_classes=3, store=store
            )

    def test_lazy_dataset_iterates_without_holding_everything(self):
        dataset = make_synthetic_ondemand(
            1.0, 1.0, num_devices=20, seed=1, cache_clients=4
        )
        seen = sum(1 for _ in dataset)
        assert seen == 20
        assert dataset.store.cache_info()["size"] == 4
