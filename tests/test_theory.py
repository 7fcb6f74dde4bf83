"""Tests for the Section 4 theory calculators and constant estimators."""

import math

import numpy as np
import pytest

from repro.core import Client
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.theory import (
    corollary7_mu,
    corollary7_rho,
    estimate_constants,
    estimate_lipschitz,
    logistic_lipschitz_bound,
    minimum_mu_for_positive_rho,
    remark5_conditions,
    rho,
    theorem6_iterations,
)

from tests.conftest import make_toy_client


class TestRho:
    BASE = dict(mu=10.0, K=10, gamma=0.1, B=1.5, L=1.0, L_minus=0.0)

    def test_formula_spot_value(self):
        """Hand-computed value of the Theorem 4 expression."""
        mu, K, gamma, B, L = 4.0, 4, 0.0, 1.0, 0.5
        expected = (
            1 / mu
            - 0.0
            - B * 1.0 * math.sqrt(2) / (mu * 2.0)
            - L * B / (mu * mu)
            - L * B**2 / (2 * mu**2)
            - L * B**2 * (2 * math.sqrt(8) + 2) / (mu**2 * K)
        )
        assert rho(mu, K, gamma, B, L) == pytest.approx(expected)

    def test_decreasing_in_B(self):
        lo = rho(**{**self.BASE, "B": 1.0})
        hi = rho(**{**self.BASE, "B": 2.0})
        assert hi < lo

    def test_decreasing_in_gamma(self):
        exact = rho(**{**self.BASE, "gamma": 0.0})
        inexact = rho(**{**self.BASE, "gamma": 0.5})
        assert inexact < exact

    def test_decreasing_in_L(self):
        smooth = rho(**{**self.BASE, "L": 0.5})
        rough = rho(**{**self.BASE, "L": 5.0})
        assert rough < smooth

    def test_more_devices_help(self):
        few = rho(**{**self.BASE, "K": 4})
        many = rho(**{**self.BASE, "K": 100})
        assert many > few

    def test_requires_mu_above_l_minus(self):
        with pytest.raises(ValueError, match="mu_bar"):
            rho(mu=1.0, K=10, gamma=0.0, B=1.0, L=1.0, L_minus=1.0)

    def test_nonconvexity_shrinks_rho(self):
        convex = rho(**self.BASE)
        nonconvex = rho(**{**self.BASE, "L_minus": 5.0})
        assert nonconvex < convex

    def test_input_validation(self):
        with pytest.raises(ValueError):
            rho(mu=1.0, K=0, gamma=0.0, B=1.0, L=1.0)
        with pytest.raises(ValueError):
            rho(mu=1.0, K=4, gamma=2.0, B=1.0, L=1.0)
        with pytest.raises(ValueError):
            rho(mu=1.0, K=4, gamma=0.0, B=-1.0, L=1.0)


class TestRemark5:
    def test_satisfied(self):
        check = remark5_conditions(gamma=0.2, B=1.5, K=16)
        assert check.satisfied
        assert check.gamma_b == pytest.approx(0.3)
        assert check.b_over_sqrt_k == pytest.approx(1.5 / 4.0)

    def test_violated_by_gamma_b(self):
        assert not remark5_conditions(gamma=0.9, B=1.5, K=100).satisfied

    def test_violated_by_participation(self):
        assert not remark5_conditions(gamma=0.0, B=4.0, K=9).satisfied

    def test_k_validation(self):
        with pytest.raises(ValueError):
            remark5_conditions(0.1, 1.0, 0)


class TestCorollary7:
    def test_mu_and_rho_values(self):
        assert corollary7_mu(L=2.0, B=3.0) == pytest.approx(6 * 2 * 9)
        assert corollary7_rho(L=2.0, B=3.0) == pytest.approx(1 / (24 * 2 * 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            corollary7_mu(0.0, 1.0)
        with pytest.raises(ValueError):
            corollary7_rho(1.0, 0.0)

    def test_corollary7_mu_gives_positive_rho(self):
        """The suggested mu indeed satisfies Theorem 4 for moderate B, K."""
        L, B, K = 1.0, 1.5, 100  # B << 0.5 sqrt(K), per the corollary
        mu = corollary7_mu(L, B)
        assert rho(mu, K, gamma=0.0, B=B, L=L) > 0


class TestTheorem6:
    def test_iterations(self):
        assert theorem6_iterations(delta=10.0, rho_value=0.5, epsilon=0.1) == 200

    def test_ceil(self):
        assert theorem6_iterations(1.0, 0.3, 1.0) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem6_iterations(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            theorem6_iterations(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            theorem6_iterations(1.0, 0.5, 0.0)

    def test_smaller_epsilon_needs_more_rounds(self):
        assert theorem6_iterations(1.0, 0.1, 0.01) > theorem6_iterations(
            1.0, 0.1, 0.1
        )


class TestMinimumMu:
    def test_found_mu_yields_positive_rho(self):
        mu = minimum_mu_for_positive_rho(K=100, gamma=0.1, B=1.2, L=1.0)
        assert rho(mu, 100, 0.1, 1.2, 1.0) > 0

    def test_rejects_remark5_violation(self):
        with pytest.raises(ValueError, match="Remark 5"):
            minimum_mu_for_positive_rho(K=4, gamma=0.9, B=2.0, L=1.0)

    def test_harder_problem_needs_larger_mu(self):
        easy = minimum_mu_for_positive_rho(K=100, gamma=0.0, B=1.1, L=1.0)
        hard = minimum_mu_for_positive_rho(K=100, gamma=0.0, B=2.0, L=1.0)
        assert hard > easy

    def test_nonconvex_shifts_mu_above_l_minus(self):
        mu = minimum_mu_for_positive_rho(
            K=100, gamma=0.0, B=1.1, L=1.0, L_minus=2.0
        )
        assert mu > 2.0


class TestEstimators:
    def test_lipschitz_estimate_below_closed_form_bound(self, rng):
        X = rng.normal(size=(60, 5))
        y = rng.integers(3, size=60)
        model = MultinomialLogisticRegression(dim=5, num_classes=3)
        estimate = estimate_lipschitz(model, X, y, rng, num_pairs=30)
        bound = logistic_lipschitz_bound(X)
        assert 0 < estimate <= bound * 1.05

    def test_lipschitz_estimate_restores_params(self, rng):
        X = rng.normal(size=(20, 4))
        y = rng.integers(2, size=20)
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        w0 = model.get_params()
        estimate_lipschitz(model, X, y, rng, num_pairs=3)
        np.testing.assert_array_equal(model.get_params(), w0)

    def test_lipschitz_validation(self, rng):
        model = MultinomialLogisticRegression(dim=2, num_classes=2)
        with pytest.raises(ValueError):
            estimate_lipschitz(model, np.zeros((2, 2)), np.zeros(2, dtype=int), rng, num_pairs=0)

    def test_logistic_bound_validation(self):
        with pytest.raises(ValueError):
            logistic_lipschitz_bound(np.zeros((0, 3)))

    def test_logistic_bound_scales_with_data(self, rng):
        X = rng.normal(size=(50, 4))
        assert logistic_lipschitz_bound(3.0 * X) == pytest.approx(
            9.0 * logistic_lipschitz_bound(X)
        )

    def test_estimate_constants(self, rng):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        clients = [
            Client(make_toy_client(i, seed=60 + i, shift=0.4 * i), model, solver)
            for i in range(4)
        ]
        w = np.ones(model.n_params) * 0.1
        constants = estimate_constants(clients, w, rng, num_pairs=5)
        assert constants.B >= 1.0
        assert constants.L > 0
        assert constants.gradient_variance >= 0
        assert constants.global_gradient_norm > 0

    def test_l_is_probed_on_the_devices_b_is_measured_on(self, rng, monkeypatch):
        """With ``max_clients`` B and sigma^2 come from a random subsample;
        L must be probed on exactly those devices, each once."""
        from repro.theory import estimation

        class Recording(list):
            def __getitem__(self, index):
                if isinstance(index, slice):
                    self.reads.extend(range(*index.indices(len(self))))
                else:
                    self.reads.append(int(index))
                return super().__getitem__(index)

        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        clients = Recording(
            Client(make_toy_client(i, seed=80 + i, shift=0.1 * i), model, solver)
            for i in range(20)
        )
        clients.reads = []
        measured = []

        def measure(*args, **kwargs):
            report = real_measure(*args, **kwargs)
            measured.append(clients.reads[:])
            clients.reads.clear()
            return report

        real_measure = estimation.measure_dissimilarity
        monkeypatch.setattr(estimation, "measure_dissimilarity", measure)
        w = np.full(model.n_params, 0.1)
        estimate_constants(clients, w, rng, num_pairs=1, max_clients=5)
        (gradient_reads,) = measured
        assert set(gradient_reads) != set(range(5))  # a random subsample
        assert sorted(clients.reads) == sorted(set(gradient_reads))
        assert len(clients.reads) == 5

    def test_theory_pipeline_end_to_end(self, rng):
        """Measured constants feed the Theorem 4 calculators sensibly."""
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        solver = SGDSolver(0.1)
        clients = [
            Client(make_toy_client(i, seed=70 + i, shift=0.2 * i), model, solver)
            for i in range(4)
        ]
        w = np.ones(model.n_params) * 0.05
        constants = estimate_constants(clients, w, rng, num_pairs=5)
        K = 64  # enough participation for the measured B
        check = remark5_conditions(gamma=0.0, B=constants.B, K=K)
        if check.satisfied:
            mu = minimum_mu_for_positive_rho(
                K=K, gamma=0.0, B=constants.B, L=max(constants.L, 1e-3)
            )
            assert rho(mu, K, 0.0, constants.B, max(constants.L, 1e-3)) > 0
