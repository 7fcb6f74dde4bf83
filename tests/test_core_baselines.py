"""Tests for the DistributedSGD baseline (Remark 8)."""

import numpy as np
import pytest

from repro.core import EvalConfig, make_distributed_sgd, make_fedprox
from repro.models import MultinomialLogisticRegression
from repro.optim import GDSolver


def _model():
    return MultinomialLogisticRegression(dim=6, num_classes=3)


class TestDistributedSGD:
    def test_configuration(self, toy_dataset):
        trainer = make_distributed_sgd(
            toy_dataset, _model(), 0.3, clients_per_round=3
        )
        assert trainer.mu == 0.0
        assert trainer.epochs == 1
        assert isinstance(trainer.solver, GDSolver)
        assert trainer.label == "DistributedSGD"

    def test_trains(self, toy_dataset):
        trainer = make_distributed_sgd(
            toy_dataset, _model(), 0.3, clients_per_round=3, seed=0
        )
        history = trainer.run(15)
        assert history.final_train_loss() < history.train_losses[0]

    def test_one_round_is_one_averaged_gradient_step(self, toy_dataset):
        """With full participation, one round = w - lr * weighted-avg grad."""
        model = _model()
        trainer = make_distributed_sgd(
            toy_dataset, model, 0.3,
            clients_per_round=toy_dataset.num_devices, seed=0,
        )
        w0 = trainer.w.copy()
        # Expected update: average of per-device single GD steps, weighted
        # by n_k (all clients have equal size in the toy dataset).
        expected_steps = []
        for client in toy_dataset:
            model.set_params(w0)
            g = model.gradient(client.train_x, client.train_y)
            expected_steps.append(w0 - 0.3 * g)
        weights = toy_dataset.sample_fractions()
        expected = weights @ np.stack(expected_steps)

        trainer.run_round()
        np.testing.assert_allclose(trainer.w, expected)

    def test_local_updating_wins_per_round(self, synthetic_small):
        """FedProx with E=10 makes more progress per round than one-step
        distributed SGD — the communication-efficiency motivation."""
        rounds = 15
        dsgd = make_distributed_sgd(
            synthetic_small,
            MultinomialLogisticRegression(dim=60, num_classes=10),
            0.1, clients_per_round=5, seed=1, evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        fedprox = make_fedprox(
            synthetic_small,
            MultinomialLogisticRegression(dim=60, num_classes=10),
            0.01, mu=0.0, clients_per_round=5, epochs=10, seed=1,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        assert fedprox.final_train_loss() < dsgd.final_train_loss()
