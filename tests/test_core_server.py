"""Tests for the federated server loop (FedAvg / FedProx semantics)."""

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.client import ClientPool
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import FederationEvaluator
from repro.systems import FractionStragglers
from tests.test_runtime_device_values import federated_test_accuracy, federated_train_loss


def _trainer(dataset, mu=0.0, drop=False, systems=None, seed=0, **kwargs):
    model = MultinomialLogisticRegression(dim=6, num_classes=3)
    return FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.1, batch_size=8),
        mu=mu,
        drop_stragglers=drop,
        clients_per_round=3,
        epochs=4,
        systems=systems,
        seed=seed,
        **kwargs,
    )


class TestBasicLoop:
    def test_run_returns_history(self, toy_dataset):
        history = _trainer(toy_dataset).run(5)
        assert len(history) == 5
        assert history.rounds == list(range(5))

    def test_loss_decreases(self, toy_dataset):
        history = _trainer(toy_dataset).run(15)
        assert history.final_train_loss() < history.train_losses[0]

    def test_accuracy_recorded(self, toy_dataset):
        history = _trainer(toy_dataset).run(3)
        assert all(r.test_accuracy is not None for r in history.records)

    def test_eval_every_skips_rounds(self, toy_dataset):
        trainer = _trainer(toy_dataset, evaluation=EvalConfig(every=2))
        history = trainer.run(4)
        assert history.records[0].test_accuracy is not None
        assert history.records[1].test_accuracy is None
        assert history.records[2].test_accuracy is not None

    def test_eval_test_disabled(self, toy_dataset):
        history = _trainer(toy_dataset, evaluation=EvalConfig(test=False)).run(2)
        assert all(r.test_accuracy is None for r in history.records)

    def test_selected_devices_recorded(self, toy_dataset):
        history = _trainer(toy_dataset).run(2)
        assert len(history.records[0].selected) == 3

    def test_run_continues_round_counter(self, toy_dataset):
        trainer = _trainer(toy_dataset)
        trainer.run(2)
        second = trainer.run(2)
        assert second.rounds == [2, 3]

    def test_model_params_follow_global(self, toy_dataset):
        trainer = _trainer(toy_dataset)
        trainer.run(3)
        np.testing.assert_array_equal(trainer.model.get_params(), trainer.w)

    def test_validation(self, toy_dataset):
        with pytest.raises(ValueError):
            _trainer(toy_dataset, mu=-1.0)
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        with pytest.raises(ValueError):
            FederatedTrainer(
                dataset=toy_dataset, model=model, solver=SGDSolver(0.1),
                epochs=0,
            )

    @pytest.mark.parametrize("max_clients", [0, -1])
    def test_dissimilarity_subsample_of_no_devices_is_refused(
        self, toy_dataset, max_clients
    ):
        """Refused at construction, not at the first evaluated round."""
        with pytest.raises(ValueError, match="dissimilarity_max_clients"):
            _trainer(
                toy_dataset,
                track_dissimilarity=True,
                dissimilarity_max_clients=max_clients,
            )


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self, toy_dataset):
        h1 = _trainer(toy_dataset, seed=5).run(6)
        h2 = _trainer(toy_dataset, seed=5).run(6)
        np.testing.assert_array_equal(h1.train_losses, h2.train_losses)

    def test_different_seeds_differ(self, toy_dataset):
        h1 = _trainer(toy_dataset, seed=5).run(6)
        h2 = _trainer(toy_dataset, seed=6).run(6)
        assert h1.train_losses != h2.train_losses

    def test_fedprox_mu0_no_stragglers_equals_fedavg(self, toy_dataset):
        """FedAvg is exactly FedProx(mu=0) when no device straggles."""
        h_avg = _trainer(toy_dataset, mu=0.0, drop=True, seed=3).run(6)
        h_prox = _trainer(toy_dataset, mu=0.0, drop=False, seed=3).run(6)
        np.testing.assert_allclose(h_avg.train_losses, h_prox.train_losses)

    def test_same_environment_across_methods(self, toy_dataset):
        """Same seed => same selected devices and same stragglers."""
        systems_a = FractionStragglers(0.5, seed=9)
        systems_b = FractionStragglers(0.5, seed=9)
        h1 = _trainer(toy_dataset, mu=0.0, systems=systems_a, seed=2).run(4)
        h2 = _trainer(toy_dataset, mu=1.0, systems=systems_b, seed=2).run(4)
        for r1, r2 in zip(h1.records, h2.records):
            assert r1.selected == r2.selected
            assert r1.stragglers == r2.stragglers


class TestStragglerHandling:
    def test_fedavg_drops_fedprox_keeps(self, toy_dataset):
        systems = FractionStragglers(0.5, seed=1)
        h_avg = _trainer(toy_dataset, drop=True, systems=systems, seed=0).run(4)
        h_prox = _trainer(
            toy_dataset, drop=False, systems=FractionStragglers(0.5, seed=1), seed=0
        ).run(4)
        assert any(r.dropped for r in h_avg.records)
        assert all(not r.dropped for r in h_prox.records)
        # Both see the same stragglers.
        for r1, r2 in zip(h_avg.records, h_prox.records):
            assert r1.stragglers == r2.stragglers

    def test_all_stragglers_dropped_keeps_previous_model(self, toy_dataset):
        systems = FractionStragglers(1.0, seed=1)
        trainer = _trainer(toy_dataset, drop=True, systems=systems, seed=0)
        w_before = trainer.w.copy()
        trainer.run_round()
        np.testing.assert_array_equal(trainer.w, w_before)

    def test_all_stragglers_kept_still_updates(self, toy_dataset):
        systems = FractionStragglers(1.0, seed=1)
        trainer = _trainer(toy_dataset, drop=False, systems=systems, seed=0)
        w_before = trainer.w.copy()
        trainer.run_round()
        assert np.linalg.norm(trainer.w - w_before) > 0


class TestAdaptiveMuIntegration:
    def test_controller_updates_mu(self, toy_dataset):
        controller = AdaptiveMuController(initial_mu=0.0)
        trainer = _trainer(toy_dataset, mu_controller=controller)
        history = trainer.run(8)
        assert history.mus[0] == 0.0
        assert trainer.mu == controller.mu

    def test_mu_recorded_per_round(self, toy_dataset):
        controller = AdaptiveMuController(initial_mu=1.0, patience=1)
        history = _trainer(toy_dataset, mu_controller=controller).run(10)
        assert len(set(history.mus)) > 1  # mu moved at least once


class TestMethodLabels:
    def test_fedavg_configuration(self, toy_dataset, toy_model):
        trainer = FederatedTrainer(
            toy_dataset, toy_model, SGDSolver(0.1, batch_size=10),
            drop_stragglers=True, clients_per_round=3,
        )
        assert trainer.mu == 0.0
        assert trainer.label == "FedAvg"

    def test_fedprox_configuration(self, toy_dataset, toy_model):
        trainer = FederatedTrainer(
            toy_dataset, toy_model, SGDSolver(0.1, batch_size=10),
            mu=0.5, clients_per_round=3,
        )
        assert not trainer.drop_stragglers
        assert trainer.label == "FedProx (mu=0.5)"

    def test_describe_variants(self, toy_dataset, toy_model):
        t = FederatedTrainer(
            toy_dataset, toy_model, SGDSolver(0.1, batch_size=10), clients_per_round=3,
            mu_controller=AdaptiveMuController(initial_mu=0.0),
        )
        assert "adaptive" in t.describe()


class TestGlobalMetrics:
    @pytest.mark.parametrize("eval_mode", ["per_client", "stacked"])
    def test_global_train_loss_is_weighted_mean(self, toy_dataset, toy_model, eval_mode):
        w = np.zeros(toy_model.n_params)
        pool = ClientPool(toy_dataset, toy_model, SGDSolver(0.1))
        # At w=0 every client's loss is log(3), so the weighted mean is too.
        loss = FederationEvaluator(pool, toy_model, eval_mode).train_loss(w)
        assert loss == pytest.approx(np.log(3))
        assert loss == pytest.approx(federated_train_loss(toy_model, toy_dataset, w))

    @pytest.mark.parametrize("eval_mode", ["per_client", "stacked"])
    def test_global_test_accuracy_range(self, toy_dataset, toy_model, eval_mode):
        w = np.zeros(toy_model.n_params)
        pool = ClientPool(toy_dataset, toy_model, SGDSolver(0.1))
        acc = FederationEvaluator(pool, toy_model, eval_mode).test_accuracy(w)
        assert 0.0 <= acc <= 1.0
        assert acc == pytest.approx(federated_test_accuracy(toy_model, toy_dataset, w))


class TestFinalEvaluation:
    def test_final_round_always_evaluated(self, toy_dataset):
        """eval_every may skip the last round; run() must fill it in."""
        trainer = _trainer(toy_dataset, evaluation=EvalConfig(every=10))
        history = trainer.run(7)  # rounds 0..6; 6 % 10 != 0
        assert history.records[-1].test_accuracy is not None
        assert history.records[3].test_accuracy is None

    def test_final_dissimilarity_filled(self, toy_dataset):
        trainer = _trainer(
            toy_dataset, evaluation=EvalConfig(every=10),
            track_dissimilarity=True,
        )
        history = trainer.run(5)
        assert history.records[-1].dissimilarity is not None

    def test_no_fill_when_eval_disabled(self, toy_dataset):
        trainer = _trainer(toy_dataset, evaluation=EvalConfig(every=10, test=False))
        history = trainer.run(5)
        assert history.records[-1].test_accuracy is None
