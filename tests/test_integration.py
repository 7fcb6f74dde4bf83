"""End-to-end integration tests of the paper's headline claims.

These train real (small) federations and assert the qualitative results the
paper reports; they are the statistical smoke versions of Figures 1, 2 and 5.
"""

import numpy as np
import pytest

from repro.core import (
    AdaptiveMuController,
    EvalConfig,
    FederatedTrainer,
    measure_dissimilarity,
)
from repro.datasets import make_mnist_like, make_synthetic, make_synthetic_iid
from repro.models import CharLSTM, MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems import FractionStragglers


def _logistic():
    return MultinomialLogisticRegression(dim=60, num_classes=10)


@pytest.fixture(scope="module")
def het_dataset():
    return make_synthetic(1.0, 1.0, num_devices=20, seed=0, size_cap=150)


@pytest.fixture(scope="module")
def het_dataset_fig2():
    """Figure-2-scale Synthetic(1,1): 30 devices, heavier tails."""
    return make_synthetic(1.0, 1.0, num_devices=30, seed=3, size_cap=400)


@pytest.fixture(scope="module")
def iid_dataset():
    return make_synthetic_iid(num_devices=20, seed=0, size_cap=150)


class TestHeadlineClaims:
    def test_fedprox_beats_fedavg_under_90pct_stragglers(self, het_dataset):
        """Figure 1's core claim on non-IID data with heavy stragglers."""
        rounds = 40
        fedavg = FederatedTrainer(
            het_dataset, _logistic(), SGDSolver(0.01, batch_size=10),
            drop_stragglers=True,
            systems=FractionStragglers(0.9, seed=5), seed=1,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        fedprox0 = FederatedTrainer(
            het_dataset, _logistic(), SGDSolver(0.01, batch_size=10), mu=0.0,
            systems=FractionStragglers(0.9, seed=5), seed=1,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        fedprox1 = FederatedTrainer(
            het_dataset, _logistic(), SGDSolver(0.01, batch_size=10), mu=1.0,
            systems=FractionStragglers(0.9, seed=5), seed=1,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        # Partial work beats dropping; the proximal term does not hurt.
        assert fedprox0.final_train_loss() < fedavg.final_train_loss()
        assert fedprox1.final_train_loss() < fedavg.final_train_loss()

    def test_iid_data_robust_to_stragglers(self, iid_dataset):
        """Figure 5: on IID data, FedAvg barely suffers from stragglers."""
        rounds = 30
        clean = FederatedTrainer(
            iid_dataset, _logistic(), SGDSolver(0.01, batch_size=10),
            drop_stragglers=True, seed=2, evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        stressed = FederatedTrainer(
            iid_dataset, _logistic(), SGDSolver(0.01, batch_size=10),
            drop_stragglers=True,
            systems=FractionStragglers(0.9, seed=3), seed=2,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        # Within a modest factor despite 90% of devices being dropped.
        assert stressed.final_train_loss() < clean.final_train_loss() * 2.0

    def test_heterogeneity_destabilizes_convergence(self, het_dataset, iid_dataset):
        """Figure 2: with mu=0 and E=20, heterogeneous data makes the loss
        curve unstable (rounds where the global loss *increases*), while the
        IID curve descends smoothly."""
        rounds = 40

        def loss_increases(ds):
            h = FederatedTrainer(
                ds, _logistic(), SGDSolver(0.01, batch_size=10), mu=0.0, seed=3,
                evaluation=EvalConfig(every=rounds)
            ).run(rounds)
            diffs = np.diff(h.train_losses)
            return int((diffs > 0).sum())

        assert loss_increases(het_dataset) > loss_increases(iid_dataset)

    def test_proximal_term_stabilizes_and_reduces_dissimilarity(self, het_dataset_fig2):
        """Figure 2: at the paper's synthetic scale, mu=1 yields lower final
        loss, lower gradient-variance dissimilarity, and fewer unstable
        (loss-increasing) rounds than mu=0."""
        rounds = 100
        runs = {}
        for mu in (0.0, 1.0):
            trainer = FederatedTrainer(
                het_dataset_fig2, _logistic(), SGDSolver(0.01, batch_size=10), mu=mu, seed=0,
                track_dissimilarity=True, evaluation=EvalConfig(every=4),
            )
            runs[mu] = trainer.run(rounds)
        assert runs[1.0].final_train_loss() < runs[0.0].final_train_loss()
        assert np.mean(runs[1.0].dissimilarities) < np.mean(runs[0.0].dissimilarities)
        increases = {
            mu: int((np.diff(h.train_losses) > 0).sum()) for mu, h in runs.items()
        }
        assert increases[1.0] < increases[0.0]

    def test_adaptive_mu_competitive_with_best_fixed(self, het_dataset):
        """Figure 3: dynamic mu from an adversarial start ~ matches fixed."""
        rounds = 40
        fixed = FederatedTrainer(
            het_dataset, _logistic(), SGDSolver(0.01, batch_size=10), mu=1.0, seed=5,
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        adaptive = FederatedTrainer(
            het_dataset, _logistic(), SGDSolver(0.01, batch_size=10), mu=0.0, seed=5,
            mu_controller=AdaptiveMuController(initial_mu=0.0),
            evaluation=EvalConfig(every=rounds),
        ).run(rounds)
        assert adaptive.final_train_loss() < fixed.final_train_loss() * 1.5


class TestConvergenceQuality:
    def test_reaches_good_accuracy_on_mnist_like(self):
        dataset = make_mnist_like(num_devices=30, total_samples=1500, dim=64, seed=0)
        model = MultinomialLogisticRegression(dim=64, num_classes=10)
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.03, batch_size=10), mu=1.0, seed=0,
            evaluation=EvalConfig(every=5),
        )
        history = trainer.run(30)
        # The multi-style image task is genuinely hard at this tiny scale;
        # require clear learning: far above the 10% chance level.
        assert history.best_test_accuracy() > 0.55
        assert history.final_test_accuracy() > 0.3

    def test_loss_monotone_in_aggregate(self, iid_dataset):
        """On IID data the loss trend should be clearly downward."""
        history = FederatedTrainer(
            iid_dataset, _logistic(), SGDSolver(0.01, batch_size=10), mu=0.0, seed=6,
            evaluation=EvalConfig(every=100),
        ).run(30)
        losses = history.train_losses
        assert losses[-1] < losses[0] * 0.7

    def test_lstm_federated_round_trip(self):
        """One full FedProx round with the CharLSTM workload stays finite."""
        from repro.datasets import make_shakespeare_like

        dataset = make_shakespeare_like(
            num_devices=4, seq_len=6, samples_per_device_mean=15, seed=0
        )
        model = CharLSTM(vocab_size=80, embed_dim=4, hidden=8, num_layers=2, seed=0)
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.5, batch_size=10), mu=0.001,
            clients_per_round=2, epochs=2, seed=0,
        )
        history = trainer.run(2)
        assert all(np.isfinite(l) for l in history.train_losses)

    def test_dissimilarity_measured_on_trained_model(self, het_dataset):
        """B(w) stays finite and >= 1 along a real training trajectory."""
        model = _logistic()
        trainer = FederatedTrainer(
            het_dataset, model, SGDSolver(0.01, batch_size=10), mu=1.0, seed=7,
            evaluation=EvalConfig(every=100),
        )
        trainer.run(10)
        report = measure_dissimilarity(trainer.clients, trainer.w)
        assert report.b_value >= 1.0
        assert np.isfinite(report.gradient_variance)
