"""Tests for the MNIST/FEMNIST-like prototype-image generators."""

import numpy as np
import pytest

from repro.datasets import (
    make_femnist_like,
    make_mnist_like,
    make_prototype_image_dataset,
)


class TestPrototypeImages:
    def test_pixels_in_unit_interval(self):
        ds = make_mnist_like(num_devices=10, total_samples=300, dim=64, seed=0)
        for c in ds:
            assert c.train_x.min() >= 0.0
            assert c.train_x.max() <= 1.0

    def test_float32_storage(self):
        ds = make_mnist_like(num_devices=5, total_samples=150, dim=64, seed=0)
        assert ds[0].train_x.dtype == np.float32

    def test_total_samples_exact(self):
        ds = make_mnist_like(num_devices=10, total_samples=300, dim=64, seed=0)
        assert sum(c.num_samples for c in ds) == 300

    def test_dim_must_be_square(self):
        with pytest.raises(ValueError, match="perfect square"):
            make_mnist_like(num_devices=4, total_samples=100, dim=50)

    def test_mnist_two_classes_per_device(self):
        ds = make_mnist_like(num_devices=20, total_samples=800, dim=64, seed=1)
        for c in ds:
            labels = np.unique(np.concatenate([c.train_y, c.test_y]))
            assert len(labels) <= 2

    def test_femnist_five_classes_per_device(self):
        ds = make_femnist_like(num_devices=15, total_samples=900, dim=64, seed=1)
        for c in ds:
            labels = np.unique(np.concatenate([c.train_y, c.test_y]))
            assert len(labels) <= 5

    def test_ten_classes_globally(self):
        ds = make_mnist_like(num_devices=30, total_samples=1200, dim=64, seed=2)
        _, y = ds.store.stacked("train")
        assert set(np.unique(y)) == set(range(10))

    def test_power_law_size_skew(self):
        ds = make_mnist_like(num_devices=50, total_samples=5000, dim=64, seed=0)
        sizes = np.array([c.num_samples for c in ds])
        assert sizes.max() > 3 * np.median(sizes)

    def test_deterministic(self):
        a = make_femnist_like(num_devices=6, total_samples=200, dim=64, seed=9)
        b = make_femnist_like(num_devices=6, total_samples=200, dim=64, seed=9)
        np.testing.assert_array_equal(a[0].train_x, b[0].train_x)

    def test_noise_increases_overlap(self):
        """Higher pixel noise lowers the accuracy of a nearest-prototype rule."""
        def proto_accuracy(noise):
            ds = make_prototype_image_dataset(
                "x", num_devices=6, num_classes=4, classes_per_device=4,
                total_samples=600, dim=64, noise=noise, seed=3,
            )
            X, y = ds.store.stacked("train")
            # class means as prototypes
            protos = np.stack([X[y == c].mean(axis=0) for c in range(4)])
            pred = np.argmin(
                ((X[:, None, :] - protos[None]) ** 2).sum(-1), axis=1
            )
            return (pred == y).mean()

        assert proto_accuracy(0.1) > proto_accuracy(1.5)

    def test_paper_scale_table1_params(self):
        ds = make_mnist_like(num_devices=40, total_samples=2000, dim=16, seed=0)
        stats = ds.stats()
        assert stats.devices == 40
        assert stats.samples == 2000
