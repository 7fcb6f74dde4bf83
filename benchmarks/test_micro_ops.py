"""Micro-benchmarks of the performance-critical primitives.

These time the inner-loop operations that dominate harness runtime: the
closed-form logistic gradient, one LSTM training step through the autograd
engine, aggregation, a full local SGD solve, and synthetic data generation.
Useful for catching performance regressions; these use pytest-benchmark's
normal repeated timing (unlike the run-once figure benchmarks).
"""

import numpy as np
import pytest

from repro.core import UniformSamplingWeightedAverage
from repro.datasets import make_synthetic
from repro.models import LSTM_BACKENDS, CharLSTM, MultinomialLogisticRegression
from repro.optim import LocalObjective, SGDSolver


def test_logistic_gradient_batch(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, 60))
    y = rng.integers(10, size=256)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    benchmark(model.loss_and_gradient, X, y)


@pytest.mark.parametrize("backend", LSTM_BACKENDS)
def test_lstm_training_step(benchmark, backend):
    """One loss+gradient at paper-ish shape: fused kernels vs graph mode."""
    rng = np.random.default_rng(0)
    model = CharLSTM(
        vocab_size=80, embed_dim=8, hidden=32, num_layers=2, seed=0, backend=backend
    )
    X = rng.integers(80, size=(10, 10))
    y = rng.integers(80, size=10)
    model.loss_and_gradient(X, y)  # allocate the fused workspace up front
    benchmark(model.loss_and_gradient, X, y)


@pytest.mark.parametrize("backend", LSTM_BACKENDS)
def test_lstm_forward_step(benchmark, backend):
    """Forward-only cost (the stacked-evaluation inner loop)."""
    rng = np.random.default_rng(0)
    model = CharLSTM(
        vocab_size=80, embed_dim=8, hidden=32, num_layers=2, seed=0, backend=backend
    )
    X = rng.integers(80, size=(64, 10))
    y = rng.integers(80, size=64)
    model.loss(X, y)
    benchmark(model.loss, X, y)


@pytest.mark.parametrize("epochs", [0.3, 1, 20])
def test_local_sgd_solve_one_epoch(benchmark, epochs):
    """One proximal-SGD solve at the Figure 1 shape (d=610, batch 10).

    Nine in ten devices of that cell run a fractional budget, where the
    per-solve set-up is a visible share; the rest run twenty epochs,
    where only the per-step cost matters.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 60))
    y = rng.integers(10, size=200)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    objective = LocalObjective(model, X, y, w_ref=np.zeros(model.n_params), mu=1.0)
    solver = SGDSolver(0.01, batch_size=10)
    w0 = np.zeros(model.n_params)

    benchmark(solver.solve, objective, w0, epochs, np.random.default_rng(1))


def test_weighted_aggregation(benchmark):
    dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0, size_cap=100)
    scheme = UniformSamplingWeightedAverage(dataset, 10, seed=0)
    rng = np.random.default_rng(0)
    updates = [(i, rng.normal(size=610)) for i in range(10)]
    prev = np.zeros(610)
    benchmark(scheme.aggregate, updates, prev)


def test_synthetic_generation(benchmark):
    benchmark(make_synthetic, 1.0, 1.0, num_devices=30, seed=0, size_cap=200)
