"""Tests for γ-inexactness measurement (Definitions 1/2)."""

import numpy as np
import pytest

from repro.models import MultinomialLogisticRegression
from repro.optim import (
    GDSolver,
    LocalObjective,
    SGDSolver,
    gamma_inexactness,
)


def _setup(mu=1.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 4))
    y = (X @ rng.normal(size=(4, 3))).argmax(axis=1)
    model = MultinomialLogisticRegression(dim=4, num_classes=3)
    w0 = np.zeros(model.n_params)
    obj = LocalObjective(model, X, y, w_ref=w0, mu=mu)
    return obj, w0


class TestGammaInexactness:
    def test_no_work_gives_gamma_one(self):
        obj, w0 = _setup()
        assert gamma_inexactness(obj, w0, w0) == pytest.approx(1.0)

    def test_more_epochs_means_smaller_gamma(self):
        obj, w0 = _setup()
        solver = GDSolver(0.2)
        gammas = []
        for epochs in (1, 5, 25):
            w = solver.solve(obj, w0, epochs, np.random.default_rng(0))
            gammas.append(gamma_inexactness(obj, w, w0))
        assert gammas[0] > gammas[1] > gammas[2]

    def test_sgd_reduces_gamma_below_one(self):
        obj, w0 = _setup()
        w = SGDSolver(0.1, batch_size=10).solve(obj, w0, 10, np.random.default_rng(0))
        assert gamma_inexactness(obj, w, w0) < 1.0

    def test_stationary_anchor_returns_zero(self):
        """When ∇h(w0) = 0 and the candidate is also stationary, γ = 0."""
        obj, w0 = _setup(mu=0.0)
        # Drive to (near) optimum, then measure from there.
        w_star = GDSolver(0.5).solve(obj, w0, 500, np.random.default_rng(0))
        obj2 = LocalObjective(obj.model, obj.X, obj.y, w_ref=w_star, mu=0.0)
        gamma = gamma_inexactness(obj2, w_star, w_star)
        assert gamma == pytest.approx(1.0, abs=1.0)  # finite, well-defined

    def test_exactly_stationary_pair(self):
        """Quadratic objective with known optimum: γ(w*, w*) handling."""

        class Quadratic:
            n_params = 2

            def set_params(self, w):
                self.w = np.asarray(w, dtype=float)

            def loss(self, X, y):
                return float(self.w @ self.w)

            def gradient(self, X, y):
                return 2.0 * self.w

            def loss_and_gradient(self, X, y):
                return self.loss(X, y), self.gradient(X, y)

        model = Quadratic()
        obj = LocalObjective(model, np.zeros((1, 1)), np.zeros(1), mu=0.0)
        w_opt = np.zeros(2)
        assert gamma_inexactness(obj, w_opt, w_opt) == 0.0

    def test_inf_when_only_anchor_stationary(self):
        class Quadratic:
            n_params = 2

            def set_params(self, w):
                self.w = np.asarray(w, dtype=float)

            def loss(self, X, y):
                return float((self.w - 1.0) @ (self.w - 1.0))

            def gradient(self, X, y):
                return 2.0 * (self.w - 1.0)

            def loss_and_gradient(self, X, y):
                return self.loss(X, y), self.gradient(X, y)

        model = Quadratic()
        obj = LocalObjective(model, np.zeros((1, 1)), np.zeros(1), mu=0.0)
        w_anchor = np.ones(2)  # stationary
        w_candidate = np.zeros(2)  # not stationary
        assert gamma_inexactness(obj, w_candidate, w_anchor) == float("inf")

    def test_larger_mu_strengthens_pull_to_anchor(self):
        """With huge µ, the subproblem optimum is near w0, so one GD step
        already achieves small γ."""
        obj_small, w0 = _setup(mu=0.01)
        obj_big, _ = _setup(mu=100.0)
        solver = GDSolver(0.005)
        w_small = solver.solve(obj_small, w0, 3, np.random.default_rng(0))
        w_big = solver.solve(obj_big, w0, 3, np.random.default_rng(0))
        assert np.linalg.norm(w_big - w0) < np.linalg.norm(w_small - w0)
