"""Tests for distributed SGD without local updating (Remark 8).

Distributed SGD is a configuration of the one trainer: a one-step
full-batch :class:`~repro.optim.sgd.GDSolver` at ``E = 1``.
"""

import numpy as np

from repro.core import EvalConfig, FederatedTrainer
from repro.models import MultinomialLogisticRegression
from repro.optim import GDSolver, SGDSolver


def _model():
    return MultinomialLogisticRegression(dim=6, num_classes=3)


def _distributed_sgd(dataset, model, learning_rate, **kwargs):
    return FederatedTrainer(
        dataset, model, GDSolver(learning_rate), epochs=1,
        label="DistributedSGD", **kwargs,
    )


class TestDistributedSGD:
    def test_configuration(self, toy_dataset):
        trainer = _distributed_sgd(toy_dataset, _model(), 0.3, clients_per_round=3)
        assert trainer.mu == 0.0
        assert not trainer.drop_stragglers
        assert trainer.epochs == 1
        assert isinstance(trainer.solver, GDSolver)
        assert trainer.label == "DistributedSGD"

    def test_trains(self, toy_dataset):
        trainer = _distributed_sgd(
            toy_dataset, _model(), 0.3, clients_per_round=3, seed=0
        )
        history = trainer.run(15)
        assert history.final_train_loss() < history.train_losses[0]

    def test_one_round_is_one_averaged_gradient_step(self, toy_dataset):
        """With full participation, one round = w - lr * weighted-avg grad."""
        model = _model()
        trainer = _distributed_sgd(
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
        dsgd = _distributed_sgd(
            synthetic_small,
            MultinomialLogisticRegression(dim=60, num_classes=10),
            0.1, clients_per_round=5, seed=1, evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        fedprox = FederatedTrainer(
            synthetic_small,
            MultinomialLogisticRegression(dim=60, num_classes=10),
            SGDSolver(0.01, batch_size=10), mu=0.0, clients_per_round=5,
            epochs=10, seed=1, evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        assert fedprox.final_train_loss() < dsgd.final_train_loss()
