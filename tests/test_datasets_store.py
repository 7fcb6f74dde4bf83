"""Client store layer: eager/mmap/on-demand parity and cache behavior."""

from __future__ import annotations

import pickle
import tracemalloc

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
from repro.datasets.federated import ClientData, train_test_split_client
from repro.datasets.store import _CLIENT_SALT, _LRUCache
from repro.datasets.synthetic import (
    NUM_CLASSES,
    NUM_FEATURES,
    _input_covariance_diag,
    _softmax_labels,
)
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.spec import build, describe
from repro.telemetry import history_digest

from .conftest import make_toy_client

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)


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


PARTS = ("train_x", "train_y", "test_x", "test_y")


def assert_same_client(a: ClientData, b: ClientData) -> None:
    """Bit-equality of two materializations: values, dtypes and shapes."""
    assert a.client_id == b.client_id
    for part in PARTS:
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype and x.shape == y.shape, part
        assert np.array_equal(x, y), part


def reference_materialize(store: OnDemandSyntheticStore, client_id: int) -> ClientData:
    """``OnDemandSyntheticStore._materialize`` as it stood before the block
    draw, frozen here as the oracle: the inputs come from one broadcasting
    ``rng.normal(loc, scale, size=(n, d))`` into a fresh array."""
    rng = np.random.default_rng(
        np.random.SeedSequence([store.seed, _CLIENT_SALT, client_id])
    )
    n = int(store._sizes[client_id])
    if store.iid:
        W, b = store._shared_W, store._shared_b
        X = rng.normal(
            loc=0.0,
            scale=np.sqrt(_input_covariance_diag()),
            size=(n, NUM_FEATURES),
        )
    else:
        u_k = rng.normal(0.0, np.sqrt(store.alpha)) if store.alpha > 0 else 0.0
        B_k = rng.normal(0.0, np.sqrt(store.beta)) if store.beta > 0 else 0.0
        W = rng.normal(u_k, 1.0, size=(NUM_FEATURES, NUM_CLASSES))
        b = rng.normal(u_k, 1.0, size=NUM_CLASSES)
        v_k = rng.normal(B_k, 1.0, size=NUM_FEATURES)
        X = rng.normal(
            loc=v_k,
            scale=np.sqrt(_input_covariance_diag()),
            size=(n, NUM_FEATURES),
        )
    y = _softmax_labels(X, W, b)
    return train_test_split_client(
        client_id, X, y, rng, test_fraction=store.test_fraction
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
        """By default a get regenerates the client and keeps nothing."""
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=5, seed=0)
        assert store.cache_info()["maxsize"] == DEFAULT_CACHE_CLIENTS == 0
        first = store.get(2)
        assert store.cache_info()["size"] == 0
        again = store.get(2)
        assert again is not first
        assert_same_client(again, first)
        assert store.cache_info() == {
            "size": 0, "maxsize": 0, "hits": 0, "misses": 2, "evictions": 0
        }

    def test_empty_lru_counts_misses_and_holds_nothing(self):
        cache = _LRUCache(0)
        value = object()
        for _ in range(3):
            assert cache.get("k") is None
            cache.put("k", value)
        assert len(cache) == 0
        assert cache.info() == {
            "size": 0, "maxsize": 0, "hits": 0, "misses": 3, "evictions": 0
        }

    def test_negative_cache_budgets_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache_clients"):
            OnDemandSyntheticStore(1.0, 1.0, num_devices=5, cache_clients=-1)
        with pytest.raises(ValueError):
            _LRUCache(-1)
        source = make_synthetic(1.0, 1.0, num_devices=4, seed=0, size_cap=80)
        MmapShardStore.pack(source, tmp_path / "s", clients_per_shard=2)
        with pytest.raises(ValueError, match="max_open_shards"):
            MmapShardStore(tmp_path / "s", max_open_shards=0)

    def test_pickle_roundtrip_drops_cache(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=12, seed=4)
        before = store.get(3)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.cache_info()["size"] == 0
        after = clone.get(3)
        np.testing.assert_array_equal(before.train_x, after.train_x)

    @pytest.mark.parametrize("size_cap", [60, 1000])
    @pytest.mark.parametrize("test_fraction", [0.0, 0.2, 0.9])
    @pytest.mark.parametrize(
        "alpha, beta, iid",
        [(0.0, 0.0, False), (0.5, 0.5, False), (1.0, 1.0, False), (0.0, 0.0, True)],
    )
    def test_block_draw_is_bit_identical_to_broadcast_normal(
        self, alpha, beta, iid, test_fraction, size_cap
    ):
        """The scratch-block materialization equals the frozen reference.

        One assumption is guarded here: NumPy computes ``normal(loc, scale)``
        as ``loc + scale * z`` from the same ziggurat stream, filled in
        row-major order, with no fused multiply-add — so
        ``standard_normal(out=X); X *= scale; X += loc`` yields the same
        bytes (``iid=True`` is the ``loc=0.0`` case, ``0.0 + z*s``).  A
        platform or NumPy build where that stops holding must fail here,
        loudly, rather than drift a training history.
        """
        store = OnDemandSyntheticStore(
            alpha, beta, num_devices=400, seed=11, iid=iid,
            test_fraction=test_fraction, size_cap=size_cap, cache_clients=8,
        )
        ids = np.random.default_rng(5).choice(400, size=200, replace=False)
        for cid in ids.tolist():
            got = store.get(cid)
            assert_same_client(got, reference_materialize(store, cid))
            assert got.num_train >= 1
            assert got.num_train == store.train_sizes[cid]
            assert got.num_test == store.test_sizes[cid]

    def test_small_client_after_large_one_sees_no_stale_rows(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=400, seed=2)
        large, small = int(np.argmax(store._sizes)), int(np.argmin(store._sizes))
        assert store._sizes[large] > 4 * store._sizes[small]
        for cid in (large, small, large):
            assert_same_client(
                store._materialize(cid), reference_materialize(store, cid)
            )

    def test_returned_arrays_never_alias_the_scratch(self):
        store = OnDemandSyntheticStore(
            1.0, 1.0, num_devices=60, seed=7, cache_clients=2
        )
        first = store.get(0)
        snapshot = {part: getattr(first, part).copy() for part in PARTS}
        for cid in range(1, 60):
            later = store.get(cid)
            for part in PARTS:
                assert not np.shares_memory(getattr(later, part), store._scratch)
        for part in PARTS:
            assert np.array_equal(getattr(first, part), snapshot[part])
        # Evicted long ago (cache of 2): the re-get regenerates equal bytes.
        assert store.cache_info()["evictions"] >= 57
        again = store.get(0)
        assert again is not first
        assert_same_client(again, first)

    def test_scratch_does_not_travel_in_a_pickle(self):
        store = OnDemandSyntheticStore(1.0, 1.0, num_devices=200, seed=4)
        cold = len(pickle.dumps(store))
        large = int(np.argmax(store._sizes))
        before = store.get(large)
        assert store._scratch.nbytes >= 8 * NUM_FEATURES * store._sizes[large]
        # O(metadata): neither the LRU nor the input block is serialized.
        assert len(pickle.dumps(store)) == cold
        clone = pickle.loads(pickle.dumps(store))
        assert clone._scratch is None
        assert_same_client(clone.get(large), before)
        assert_same_client(store.get(large), before)

    def test_scratch_is_sized_by_clients_seen_not_by_the_largest_device(self):
        store = OnDemandSyntheticStore(
            1.0, 1.0, num_devices=20_000, seed=0, size_cap=None
        )
        sizes = store._sizes
        assert sizes.max() > 50_000  # sizing by it would be > 24 MB per get
        small = int(np.argmin(sizes))
        assert sizes[small] <= 60
        tracemalloc.start()
        try:
            store.get(small)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        # Grow-only, to the largest client materialized so far.
        assert len(store._scratch) == sizes[small]
        medium = int(np.argmin(np.abs(sizes - 500)))
        store.get(medium)
        store._materialize(small)
        assert len(store._scratch) == sizes[medium] > sizes[small]

    def test_factory_builds_lazy_dataset(self):
        dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=40, seed=2)
        assert dataset.is_lazy
        assert dataset.num_devices == 40
        assert "Synthetic-OD" in dataset.name
        stats = dataset.stats()
        assert stats.devices == 40

    def test_eviction_never_changes_training_history(self):
        """No cache, one too small to hold the cohort, or one holding the
        whole federation: training is the same."""
        series = []
        for cache in (0, 2, 64, 256):
            dataset = make_synthetic_ondemand(
                1.0, 1.0, num_devices=30, seed=6, cache_clients=cache
            )
            trainer = make_trainer(dataset, seed=1)
            history = trainer.run(3)
            trainer.close()
            series.append(history_series(history))
        assert all(s == series[0] for s in series[1:])

    def test_recipe_with_the_old_cache_default_replays(self):
        """Ledgers recorded while the default was an LRU of 256 clients
        carry ``cache_clients=256``; such a recipe still builds and trains
        to the same history as the default."""
        dataset = make_synthetic_ondemand(
            1.0, 1.0, num_devices=300, seed=4, size_cap=120
        )
        recipe = describe(dataset)
        assert recipe["cache_clients"] == 0
        old = build({**recipe, "cache_clients": 256}, "dataset")
        assert old.store.cache_info()["maxsize"] == 256
        digests = []
        for data in (dataset, old):
            with make_trainer(
                data, seed=2,
                evaluation=EvalConfig(strategy="sampled", sample_size=30),
            ) as trainer:
                digests.append(history_digest(trainer.run(4).records))
        assert old.store.cache_info()["hits"] > 0
        assert digests[0] == digests[1]


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

    def test_reopened_shard_equals_eager_arrays(self, packed):
        """A shard evicted from the handle LRU and opened again reads the
        same bytes."""
        source, _ = packed
        store = MmapShardStore(packed[1].directory, max_open_shards=1)
        for _ in range(2):
            for cid in (0, 8, 15, 24, 3, 20):
                assert_same_client(store.get(cid), source[cid])
        assert store.cache_info()["evictions"] >= 8

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
    def test_get_rejects_ids_outside_the_federation(self, tmp_path):
        """``get`` takes ids ``0 <= k < len`` on every store; negative
        indexing is ``__getitem__``'s job."""
        source = make_synthetic(1.0, 1.0, num_devices=6, seed=0, size_cap=80)
        stores = [
            source.store,
            OnDemandSyntheticStore(1.0, 1.0, num_devices=6, seed=0),
            MmapShardStore.pack(source, tmp_path / "s", clients_per_shard=4),
        ]
        for store in stores:
            for bad in (-1, 6):
                with pytest.raises(IndexError):
                    store.get(bad)
            assert store[-1].client_id == 5
            assert store.get(5).client_id == 5

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
