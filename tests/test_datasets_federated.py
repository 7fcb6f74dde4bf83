"""Tests for federated dataset containers and the per-device split."""

import numpy as np
import pytest

from repro.datasets import (
    ClientData,
    FederatedDataset,
    PackedClientStore,
    make_synthetic_ondemand,
    train_test_split_client,
)


def _client(cid=0, n_train=10, n_test=4, dim=3):
    return ClientData(
        client_id=cid,
        train_x=np.zeros((n_train, dim)),
        train_y=np.zeros(n_train, dtype=int),
        test_x=np.zeros((n_test, dim)),
        test_y=np.zeros(n_test, dtype=int),
    )


class TestClientData:
    def test_counts(self):
        c = _client(n_train=10, n_test=4)
        assert c.num_train == 10
        assert c.num_test == 4
        assert c.num_samples == 14

    def test_train_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="train"):
            ClientData(0, np.zeros((3, 2)), np.zeros(4, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="test"):
            ClientData(0, np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros((2, 2)), np.zeros(1, dtype=int))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="no training samples"):
            ClientData(0, np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestFederatedDataset:
    def test_iteration_and_indexing(self):
        clients = [_client(i) for i in range(3)]
        ds = FederatedDataset("d", clients, num_classes=2)
        assert len(ds) == 3
        assert ds[1].client_id == 1
        assert [c.client_id for c in ds] == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FederatedDataset("d", [], num_classes=2)

    def test_train_sizes_and_total(self):
        clients = [_client(0, n_train=5), _client(1, n_train=15)]
        ds = FederatedDataset("d", clients, num_classes=2)
        np.testing.assert_array_equal(ds.train_sizes, [5, 15])
        assert ds.total_train_samples == 20

    def test_sample_fractions_sum_to_one(self):
        clients = [_client(i, n_train=5 * (i + 1)) for i in range(4)]
        ds = FederatedDataset("d", clients, num_classes=2)
        fractions = ds.sample_fractions()
        assert fractions.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(fractions, [5, 10, 15, 20] / np.float64(50))

    def test_stats_uses_total_samples(self):
        clients = [_client(0, n_train=8, n_test=2), _client(1, n_train=16, n_test=4)]
        ds = FederatedDataset("ds-name", clients, num_classes=2)
        stats = ds.stats()
        assert stats.name == "ds-name"
        assert stats.devices == 2
        assert stats.samples == 30
        assert stats.mean_samples_per_device == pytest.approx(15.0)
        assert stats.stdev_samples_per_device == pytest.approx(np.std([10, 20], ddof=1))

    def test_stats_single_device_stdev_zero(self):
        ds = FederatedDataset("d", [_client(0)], num_classes=2)
        assert ds.stats().stdev_samples_per_device == 0.0

    def test_stats_as_row_rounds(self):
        ds = FederatedDataset("d", [_client(0), _client(1, n_train=11)], num_classes=2)
        row = ds.stats().as_row()
        assert isinstance(row["Samples/device mean"], int)

    def test_stacked_train_concatenates(self):
        clients = [_client(0, n_train=3), _client(1, n_train=5)]
        ds = FederatedDataset("d", clients, num_classes=2)
        X, y = ds.store.stacked("train")
        assert X.shape == (8, 3)
        assert y.shape == (8,)

    def test_stacked_test(self):
        clients = [_client(0, n_test=2), _client(1, n_test=3)]
        ds = FederatedDataset("d", clients, num_classes=2)
        X, y = ds.store.stacked("test")
        assert len(y) == 5

    def test_stacked_test_empty_is_zero_train_shaped_rows(self):
        clients = [_client(0, n_test=0), _client(1, n_train=5, n_test=0)]
        ds = FederatedDataset("d", clients, num_classes=2)
        X, y = ds.store.stacked("test")
        assert X.shape == (0, 3) and X.dtype == clients[0].train_x.dtype
        assert y.shape == (0,) and y.dtype == clients[0].train_y.dtype

    def test_stacked_test_empty_is_one_answer_across_stores(self):
        """The same train-only federation, packed by hand, packed from its
        client list and on demand."""
        ondemand = make_synthetic_ondemand(
            1.0, 1.0, num_devices=6, seed=3, test_fraction=0.0, size_cap=60
        )
        clients = list(ondemand)
        offsets = np.cumsum([0] + [c.num_train for c in clients])
        packed = PackedClientStore(
            np.concatenate([c.train_x for c in clients]),
            np.concatenate([c.train_y for c in clients]),
            offsets,
            np.zeros_like(offsets),
        )
        listed = FederatedDataset("listed", clients, num_classes=10).store
        answers = [
            store.stacked(split)
            for split in ("test", "train")
            for store in (packed, listed, ondemand.store)
        ]
        for split_answers in (answers[:3], answers[3:]):
            for X, y in split_answers[1:]:
                want_X, want_y = split_answers[0]
                assert X.shape == want_X.shape and X.dtype == want_X.dtype
                assert y.shape == want_y.shape and y.dtype == want_y.dtype
                assert np.array_equal(X, want_X) and np.array_equal(y, want_y)
        assert answers[0][0].shape == (0, 60)


class TestTrainTestSplit:
    def test_default_80_20(self, rng):
        X = np.arange(100.0).reshape(50, 2)
        y = np.arange(50)
        c = train_test_split_client(0, X, y, rng)
        assert c.num_train == 40
        assert c.num_test == 10

    def test_partition_is_exact(self, rng):
        X = np.arange(40.0).reshape(20, 2)
        y = np.arange(20)
        c = train_test_split_client(0, X, y, rng)
        combined = sorted(np.concatenate([c.train_y, c.test_y]).tolist())
        assert combined == list(range(20))

    def test_rows_stay_aligned(self, rng):
        X = np.arange(20.0).reshape(10, 2)
        y = X[:, 0].astype(int)  # label encodes the row
        c = train_test_split_client(0, X, y, rng)
        np.testing.assert_array_equal(c.train_x[:, 0].astype(int), c.train_y)
        np.testing.assert_array_equal(c.test_x[:, 0].astype(int), c.test_y)

    def test_tiny_client_keeps_one_train_sample(self, rng):
        X = np.zeros((1, 2))
        y = np.zeros(1, dtype=int)
        c = train_test_split_client(0, X, y, rng, test_fraction=0.9)
        assert c.num_train == 1
        assert c.num_test == 0

    def test_zero_test_fraction(self, rng):
        c = train_test_split_client(0, np.zeros((10, 2)), np.zeros(10, dtype=int), rng, test_fraction=0.0)
        assert c.num_test == 0

    def test_invalid_fraction_rejected(self, rng):
        with pytest.raises(ValueError):
            train_test_split_client(0, np.zeros((5, 2)), np.zeros(5, dtype=int), rng, test_fraction=1.0)
