"""Tests for the paper's synthetic data generators."""

import numpy as np
import pytest

from repro.core import ClientPool, measure_dissimilarity
from repro.datasets import make_synthetic, make_synthetic_iid, synthetic_suite
from repro.datasets.synthetic import NUM_CLASSES, NUM_FEATURES, _input_covariance_diag
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver


class TestGeneration:
    def test_shapes_and_ranges(self):
        ds = make_synthetic(0.5, 0.5, num_devices=10, seed=0, size_cap=100)
        assert ds.num_devices == 10
        for c in ds:
            assert c.train_x.shape[1] == NUM_FEATURES
            assert c.train_y.min() >= 0 and c.train_y.max() < NUM_CLASSES

    def test_deterministic_given_seed(self):
        a = make_synthetic(1.0, 1.0, num_devices=5, seed=3, size_cap=100)
        b = make_synthetic(1.0, 1.0, num_devices=5, seed=3, size_cap=100)
        np.testing.assert_array_equal(a[0].train_x, b[0].train_x)
        np.testing.assert_array_equal(a[3].train_y, b[3].train_y)

    def test_different_seeds_differ(self):
        a = make_synthetic(1.0, 1.0, num_devices=5, seed=3, size_cap=100)
        b = make_synthetic(1.0, 1.0, num_devices=5, seed=4, size_cap=100)
        assert not np.array_equal(a[0].train_x, b[0].train_x)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic(-1.0, 0.0)

    def test_size_cap_applies(self):
        ds = make_synthetic(0.0, 0.0, num_devices=20, seed=0, size_cap=60)
        for c in ds:
            assert c.num_samples <= 60

    def test_name_formatting(self):
        assert make_synthetic(0.5, 0.5, num_devices=3, seed=0).name == "Synthetic(0.5,0.5)"
        assert make_synthetic_iid(num_devices=3, seed=0).name == "Synthetic-IID"

    def test_covariance_diag_decays(self):
        diag = _input_covariance_diag()
        assert diag[0] == pytest.approx(1.0)
        assert np.all(np.diff(diag) < 0)

    def test_all_classes_present_globally(self):
        ds = make_synthetic(1.0, 1.0, num_devices=30, seed=0, size_cap=200)
        _, y = ds.store.stacked("train")
        assert len(np.unique(y)) >= 8  # nearly all of the 10 classes

    def test_iid_labels_not_degenerate(self):
        ds = make_synthetic_iid(num_devices=10, seed=0, size_cap=200)
        _, y = ds.store.stacked("train")
        assert len(np.unique(y)) >= 5


class TestHeterogeneityKnob:
    """alpha/beta should monotonically increase measured dissimilarity."""

    @staticmethod
    def _dissimilarity(ds):
        model = MultinomialLogisticRegression(dim=NUM_FEATURES, num_classes=NUM_CLASSES)
        clients = ClientPool(ds, model, SGDSolver(0.01))
        # Measure at a non-trivial point: a few global GD steps from zero.
        w = np.zeros(model.n_params)
        X, y = ds.store.stacked("train")
        for _ in range(5):
            model.set_params(w)
            w = w - 0.5 * model.gradient(X, y)
        return measure_dissimilarity(clients, w).gradient_variance

    def test_iid_less_dissimilar_than_heterogeneous(self):
        iid = make_synthetic_iid(num_devices=15, seed=1, size_cap=200)
        het = make_synthetic(1.0, 1.0, num_devices=15, seed=1, size_cap=200)
        assert self._dissimilarity(iid) < self._dissimilarity(het)

    def test_suite_contains_expected_names(self):
        suite = synthetic_suite(seed=0, num_devices=6, size_cap=80)
        assert list(suite) == [
            "Synthetic-IID",
            "Synthetic(0,0)",
            "Synthetic(0.5,0.5)",
            "Synthetic(1,1)",
        ]

    def test_suite_datasets_independent(self):
        suite = synthetic_suite(seed=0, num_devices=6, size_cap=80)
        a = suite["Synthetic(0,0)"][0].train_x
        b = suite["Synthetic(1,1)"][0].train_x
        assert a.shape[1] == b.shape[1] == NUM_FEATURES
        assert not np.array_equal(a[: len(b)], b[: len(a)])
