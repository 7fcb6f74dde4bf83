"""Tests for the client pool's local solve and dissimilarity measurement."""

import numpy as np
import pytest

from repro.core import bounded_variance_b_upper_bound, measure_dissimilarity
from repro.core.client import ClientUpdate
from repro.datasets import ClientData
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime.evaluation import device_values

from tests.conftest import frozen_train_gradient, make_pool, make_toy_client


def _clients(n=4, shift_step=0.5, model=None):
    model = model or MultinomialLogisticRegression(dim=6, num_classes=3)
    solver = SGDSolver(0.1, batch_size=8)
    return make_pool(
        [make_toy_client(i, seed=50 + i, shift=shift_step * i) for i in range(n)],
        model,
        solver,
    ), model


class TestLocalSolve:
    def test_local_solve_returns_update(self):
        clients, model = _clients()
        w0 = np.zeros(model.n_params)
        update = clients.local_solve(0, w0, mu=0.0, epochs=2, rng=np.random.default_rng(0))
        assert isinstance(update, ClientUpdate)
        assert update.client_id == 0
        assert update.num_train == clients[0].num_train
        assert update.epochs == 2
        assert update.w.shape == w0.shape

    def test_local_solve_moves_parameters(self):
        clients, model = _clients()
        w0 = np.zeros(model.n_params)
        update = clients.local_solve(0, w0, mu=0.0, epochs=3, rng=np.random.default_rng(0))
        assert np.linalg.norm(update.w - w0) > 0

    def test_gradient_evaluation_count(self):
        clients, model = _clients()
        w0 = np.zeros(model.n_params)
        # 24 train samples, batch 8 -> 3 batches/epoch.
        update = clients.local_solve(0, w0, 0.0, 2, np.random.default_rng(0))
        assert update.gradient_evaluations == 6
        update = clients.local_solve(0, w0, 0.0, 0.34, np.random.default_rng(0))
        assert update.gradient_evaluations == 1

    def test_proximal_solve_stays_closer(self):
        clients, model = _clients()
        w0 = np.zeros(model.n_params)
        free = clients.local_solve(0, w0, 0.0, 10, np.random.default_rng(0))
        prox = clients.local_solve(0, w0, 10.0, 10, np.random.default_rng(0))
        assert np.linalg.norm(prox.w - w0) < np.linalg.norm(free.w - w0)

    def test_device_loss_and_gradient(self):
        clients, model = _clients()
        w = np.zeros(model.n_params)
        (loss,) = device_values(clients, w, "loss", [0])
        assert loss == pytest.approx(np.log(3))
        (grad,) = device_values(clients, w, "gradient", [0])
        assert grad.shape == (model.n_params,)

    def test_device_correct_count(self):
        clients, model = _clients()
        w = np.zeros(model.n_params)
        (correct,) = device_values(clients, w, "correct", [0])
        assert 0 <= correct <= clients[0].num_test


class TestDissimilarity:
    def test_identical_clients_give_b_one_variance_zero(self):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        data = make_toy_client(0, seed=5)
        clients = make_pool([data] * 4, model, solver)
        report = measure_dissimilarity(clients, np.ones(model.n_params) * 0.1)
        assert report.gradient_variance == pytest.approx(0.0, abs=1e-12)
        assert report.b_value == pytest.approx(1.0)

    def test_b_at_least_one(self):
        clients, model = _clients(shift_step=0.8)
        report = measure_dissimilarity(clients, np.ones(model.n_params) * 0.05)
        assert report.b_value >= 1.0

    def test_heterogeneity_increases_variance(self):
        same, model = _clients(shift_step=0.0)
        diff, _ = _clients(shift_step=1.0, model=model)
        w = np.ones(model.n_params) * 0.05
        assert (
            measure_dissimilarity(diff, w).gradient_variance
            > measure_dissimilarity(same, w).gradient_variance
        )

    def test_subsampling_clients(self):
        clients, model = _clients(n=4)
        report = measure_dissimilarity(
            clients, np.zeros(model.n_params), max_clients=2,
            rng=np.random.default_rng(0),
        )
        assert np.isfinite(report.gradient_variance)

    @pytest.mark.parametrize("max_clients", [0, -1])
    def test_a_subsample_of_no_devices_is_refused(self, max_clients):
        clients, model = _clients(n=4)
        with pytest.raises(ValueError, match="max_clients must be at least 1"):
            measure_dissimilarity(
                clients, np.zeros(model.n_params), max_clients=max_clients
            )

    @pytest.mark.parametrize("max_clients", [None, 7])
    def test_a_lazy_store_materializes_each_measured_device_once(
        self, monkeypatch, max_clients
    ):
        from repro.core.client import ClientPool
        from repro.datasets.store import make_synthetic_ondemand

        dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=20, seed=4, size_cap=60)
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        pool = ClientPool(dataset, model, SGDSolver(0.1, batch_size=8))
        gets = []
        store_get = dataset.store.get
        monkeypatch.setattr(
            dataset.store, "get", lambda cid: gets.append(cid) or store_get(cid)
        )
        measure_dissimilarity(pool, np.zeros(model.n_params), max_clients=max_clients)
        assert len(gets) == len(set(gets)) == (max_clients or 20)

    @pytest.mark.parametrize("max_clients", [None, 5])
    def test_report_equals_the_one_weighted_from_client_data(self, max_clients):
        """Masses read off ``train_sizes`` are the integers the clients hold."""
        from repro.core.client import ClientPool
        from repro.datasets import make_synthetic

        dataset = make_synthetic(1.0, 1.0, num_devices=9, seed=2, size_cap=60)
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        pool = ClientPool(dataset, model, SGDSolver(0.1, batch_size=8))
        w = np.full(model.n_params, 0.01)
        assert measure_dissimilarity(pool, w, max_clients=max_clients) == (
            measure_dissimilarity(
                make_pool(list(pool), model), w, max_clients=max_clients
            )
        )

    def test_global_gradient_norm_reported(self):
        clients, model = _clients()
        report = measure_dissimilarity(clients, np.zeros(model.n_params))
        assert report.global_gradient_norm > 0

    def test_bounded_variance_corollary10(self):
        assert bounded_variance_b_upper_bound(0.0, 1.0) == pytest.approx(1.0)
        assert bounded_variance_b_upper_bound(3.0, 1.0) == pytest.approx(2.0)

    def test_corollary10_validation(self):
        with pytest.raises(ValueError):
            bounded_variance_b_upper_bound(1.0, 0.0)
        with pytest.raises(ValueError):
            bounded_variance_b_upper_bound(-1.0, 1.0)

    def test_corollary10_bounds_measured_b(self):
        """Empirical check of B <= sqrt(1 + sigma^2/eps) with
        eps = ||∇f||^2 (the tightest admissible epsilon at w)."""
        clients, model = _clients(shift_step=0.7)
        w = np.ones(model.n_params) * 0.1
        report = measure_dissimilarity(clients, w)
        eps = report.global_gradient_norm**2
        bound = bounded_variance_b_upper_bound(report.gradient_variance, eps)
        assert report.b_value <= bound + 1e-9


class _ScaledGradients:
    """A model whose gradient on device ``k``'s rows is ``scale * G[k]``;
    each device's rows hold its id."""

    def __init__(self, gradients, scale):
        self.gradients, self.scale = gradients, scale

    def set_params(self, w):
        pass

    def gradient(self, X, y):
        return self.scale * self.gradients[int(X[0, 0])]


def _stub_clients(gradients, scale, sizes=None):
    model = _ScaledGradients(np.asarray(gradients, dtype=np.float64), scale)
    sizes = sizes or [2 + k for k in range(len(gradients))]
    return make_pool(
        [
            ClientData(
                k, np.full((n, 1), float(k)), np.zeros(n, int),
                np.zeros((0, 1)), np.zeros(0, int),
            )
            for k, n in enumerate(sizes)
        ],
        model,
        SGDSolver(0.1),
    )


class TestBIsAStatisticOfDirectionsNotScale:
    GRADIENTS = np.random.default_rng(7).normal(0.5, 1.0, size=(5, 4))

    def test_b_is_equal_at_every_gradient_scale(self):
        reports = {
            s: measure_dissimilarity(_stub_clients(self.GRADIENTS, s), None)
            for s in (1.0, 1e-3, 1e-5, 1e-8)
        }
        b_one = reports[1.0].b_value
        assert b_one > 1.1
        for s, report in reports.items():
            assert report.b_value == pytest.approx(b_one, rel=1e-12, abs=0), s
            assert report.gradient_variance == pytest.approx(
                s * s * reports[1.0].gradient_variance, rel=1e-12, abs=0
            )

    def test_identical_gradients_still_give_one(self):
        same = np.repeat(self.GRADIENTS[:1], 5, axis=0)
        for s in (1.0, 1e-8):
            assert measure_dissimilarity(_stub_clients(same, s), None).b_value == 1.0

    def test_vanishing_global_gradient_still_gives_inf(self):
        g = self.GRADIENTS[0]
        clients = _stub_clients([g, -g], 1.0, sizes=[3, 3])
        report = measure_dissimilarity(clients, None)
        assert report.global_gradient_norm == 0.0
        assert report.b_value == float("inf")


class TestEqualsTheFrozenLoop:
    """Variance and B over the devices measured are the loop's, bit for bit."""

    @pytest.mark.parametrize("max_clients", [None, 6])
    def test_report_equals_the_frozen_loop(self, max_clients):
        from repro.core.client import ClientPool
        from repro.datasets import make_synthetic_ondemand

        dataset = make_synthetic_ondemand(1.0, 1.0, num_devices=15, seed=3, size_cap=60)
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        pool = ClientPool(dataset, model, SGDSolver(0.1, batch_size=8))
        w = np.random.default_rng(1).normal(0, 0.05, model.n_params)
        report = measure_dissimilarity(pool, w, max_clients=max_clients)
        indices = np.array(report.devices)
        assert len(indices) == (max_clients or 15)
        masses = dataset.train_sizes[indices].astype(np.float64)
        masses /= masses.sum()
        stacked = np.stack([frozen_train_gradient(pool, i, w) for i in indices])
        global_grad = masses @ stacked
        expected = float(masses @ np.einsum("ij,ij->i", stacked, stacked))
        global_sq = float(global_grad @ global_grad)
        assert report.gradient_variance == max(expected - global_sq, 0.0)
        assert report.b_value == float(np.sqrt(expected / global_sq))
        assert report.global_gradient_norm == float(np.sqrt(global_sq))
