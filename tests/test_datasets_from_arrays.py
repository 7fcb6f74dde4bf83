"""Tests for federating user-provided arrays."""

import numpy as np
import pytest

from repro.datasets import federate_arrays


def _data(n=300, dim=5, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    y = rng.integers(classes, size=n)
    return X, y


class TestIIDScheme:
    def test_all_samples_used_once(self):
        X, y = _data()
        ds = federate_arrays(X, y, num_devices=10, scheme="iid", seed=0)
        assert sum(c.num_samples for c in ds) == 300

    def test_balanced_sizes(self):
        X, y = _data()
        ds = federate_arrays(X, y, num_devices=10, scheme="iid", seed=0)
        sizes = [c.num_samples for c in ds]
        assert max(sizes) - min(sizes) <= 1

    def test_num_classes_inferred(self):
        X, y = _data(classes=7)
        ds = federate_arrays(X, y, num_devices=5, seed=0)
        assert ds.num_classes == 7

    def test_per_device_split(self):
        X, y = _data()
        ds = federate_arrays(X, y, num_devices=5, test_fraction=0.25, seed=0)
        for c in ds:
            assert c.num_test == int(c.num_samples * 0.25)


class TestPowerLawScheme:
    def test_sizes_skewed(self):
        X, y = _data(n=2000)
        ds = federate_arrays(X, y, num_devices=40, scheme="power_law", seed=0)
        sizes = np.array([c.num_samples for c in ds])
        assert sizes.sum() == 2000
        assert sizes.max() > 3 * np.median(sizes)

    def test_every_device_has_train_data(self):
        X, y = _data(n=500)
        ds = federate_arrays(X, y, num_devices=20, scheme="power_law", seed=1)
        assert all(c.num_train >= 1 for c in ds)


class TestLabelSkewScheme:
    def test_class_constraint_respected(self):
        X, y = _data(n=1000, classes=10)
        ds = federate_arrays(
            X, y, num_devices=20, scheme="label_skew",
            classes_per_device=2, seed=0,
        )
        for c in ds:
            labels = np.unique(np.concatenate([c.train_y, c.test_y]))
            assert len(labels) <= 2

    def test_all_samples_used_once(self):
        X, y = _data(n=1000, classes=10)
        ds = federate_arrays(
            X, y, num_devices=20, scheme="label_skew",
            classes_per_device=2, seed=0,
        )
        assert sum(c.num_samples for c in ds) == 1000

    def test_labels_match_features(self):
        """Rows must stay aligned with their labels through partitioning."""
        n, classes = 400, 4
        rng = np.random.default_rng(3)
        y = rng.integers(classes, size=n)
        X = y[:, None] * np.ones((n, 3))  # feature encodes the label
        ds = federate_arrays(
            X, y, num_devices=8, scheme="label_skew",
            classes_per_device=2, seed=0,
        )
        for c in ds:
            np.testing.assert_array_equal(c.train_x[:, 0].astype(int), c.train_y)

    def test_requires_classes_per_device(self):
        X, y = _data()
        with pytest.raises(ValueError, match="classes_per_device"):
            federate_arrays(X, y, num_devices=5, scheme="label_skew")

    def test_insufficient_class_samples_rejected(self):
        # Class 0 has a single sample but many devices want it.
        y = np.array([0] + [1] * 99)
        X = np.zeros((100, 2))
        with pytest.raises(ValueError, match="shard"):
            federate_arrays(
                X, y, num_devices=50, scheme="label_skew",
                classes_per_device=2, seed=0,
            )


class TestValidation:
    def test_unknown_scheme(self):
        X, y = _data()
        with pytest.raises(ValueError, match="unknown scheme"):
            federate_arrays(X, y, num_devices=5, scheme="dirichlet")

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            federate_arrays(np.zeros((5, 2)), np.zeros(4, dtype=int), num_devices=2)

    def test_more_devices_than_samples(self):
        with pytest.raises(ValueError, match="fewer samples"):
            federate_arrays(np.zeros((3, 2)), np.zeros(3, dtype=int), num_devices=5)

    def test_trains_end_to_end(self):
        """Federated arrays plug straight into the trainer."""
        from repro.core import FederatedTrainer
        from repro.models import MultinomialLogisticRegression
        from repro.optim import SGDSolver

        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 6))
        y = (X @ rng.normal(size=(6, 3))).argmax(axis=1)
        ds = federate_arrays(
            X, y, num_devices=10, scheme="label_skew",
            classes_per_device=2, seed=0,
        )
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        history = FederatedTrainer(
            ds, model, SGDSolver(0.1, batch_size=10), mu=1.0,
            clients_per_round=5, epochs=3, seed=0,
        ).run(10)
        assert history.final_train_loss() < history.train_losses[0]
