"""Edge cases and failure injection across module boundaries."""

import numpy as np
import pytest

from repro.core import (
    EvalConfig,
    FederatedTrainer,
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from repro.datasets import ClientData, FederatedDataset, make_synthetic
from repro.models import MultinomialLogisticRegression
from repro.models.base import FederatedModel
from repro.optim import LocalObjective, SGDSolver

from tests.conftest import make_toy_client


class TestSingleDeviceFederation:
    """K = N = 1: the degenerate but legal federation."""

    @pytest.fixture
    def lone(self):
        return FederatedDataset(
            "lone", [make_toy_client(0, seed=11)], num_classes=3
        )

    def test_trains(self, lone):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = FederatedTrainer(
            dataset=lone, model=model, solver=SGDSolver(0.1, batch_size=8),
            clients_per_round=1, epochs=3, seed=0,
        )
        history = trainer.run(8)
        assert history.final_train_loss() < history.train_losses[0]

    def test_single_device_equals_local_training(self, lone):
        """With one device and no proximal term, a federated round is just
        that device's local solve."""
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = FederatedTrainer(
            dataset=lone, model=model, solver=SGDSolver(0.1, batch_size=8),
            clients_per_round=1, epochs=2, seed=5,
        )
        w0 = trainer.w.copy()
        trainer.run_round()

        expected_model = MultinomialLogisticRegression(dim=6, num_classes=3)
        objective = LocalObjective(
            expected_model, lone[0].train_x, lone[0].train_y, mu=0.0
        )
        expected = SGDSolver(0.1, batch_size=8).solve(
            objective, w0, 2,
            np.random.default_rng(np.random.SeedSequence([5, 0, 0, 0])),
        )
        np.testing.assert_allclose(trainer.w, expected)


class TestWeightedSamplingExecution:
    def test_duplicate_selection_runs_both_occurrences(self, toy_dataset):
        """The with-replacement scheme may pick a device twice; both solves
        run with distinct batch randomness and both enter the average."""
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = FederatedTrainer(
            dataset=toy_dataset, model=model,
            solver=SGDSolver(0.1, batch_size=8),
            sampling=WeightedSamplingSimpleAverage(toy_dataset, 6, seed=1),
            clients_per_round=6, epochs=1, seed=1,
        )
        # Find a round with a duplicate selection.
        for r in range(40):
            selected = trainer.sampling.select(r)
            if len(set(selected)) < len(selected):
                break
        else:
            pytest.skip("no duplicate draw in 40 rounds")
        updates, _, _ = trainer._local_updates(r, selected)
        assert len(updates) == len(selected)
        dup = [u for u in updates if selected.count(u.client_id) > 1]
        # Distinct occurrences produce distinct solutions (different batch rng).
        if len(dup) >= 2:
            assert not np.allclose(dup[0].w, dup[1].w)


class TestAbnormalModels:
    class ExplodingModel(FederatedModel):
        """Gradient oracle that returns huge values — a diverging client."""

        n_params = 4

        def __init__(self):
            self._w = np.zeros(4)

        def get_params(self):
            return self._w.copy()

        def set_params(self, w):
            self._w = np.asarray(w, dtype=float)

        def loss(self, X, y):
            return float(1e6 + self._w @ self._w)

        def gradient(self, X, y):
            return np.full(4, 1e8)

        def predict(self, X):
            return np.zeros(len(X), dtype=int)

        def fresh(self):
            return type(self)()

    def test_divergent_client_produces_finite_records(self, toy_dataset):
        """Huge gradients yield huge (but finite, recordable) losses."""
        model = self.ExplodingModel()
        trainer = FederatedTrainer(
            dataset=toy_dataset, model=model,
            solver=SGDSolver(1e-12, batch_size=8),
            clients_per_round=2, epochs=1, seed=0, evaluation=EvalConfig(test=False),
        )
        history = trainer.run(2)
        assert all(np.isfinite(r.train_loss) for r in history.records)

    def test_classify_run_flags_divergence_of_exploding_loss(self):
        from repro.metrics import classify_run

        losses = [2.0 - 0.01 * i for i in range(10)] + [1e6]
        assert classify_run(losses).status == "diverged"


class TestDataEdgeCases:
    def test_two_sample_device_trains(self):
        tiny = ClientData(
            client_id=0,
            train_x=np.array([[1.0, 0.0], [0.0, 1.0]]),
            train_y=np.array([0, 1]),
            test_x=np.zeros((0, 2)),
            test_y=np.zeros(0, dtype=int),
        )
        ds = FederatedDataset("tiny", [tiny], num_classes=2)
        model = MultinomialLogisticRegression(dim=2, num_classes=2)
        trainer = FederatedTrainer(
            dataset=ds, model=model, solver=SGDSolver(0.5, batch_size=1),
            clients_per_round=1, epochs=5, seed=0, evaluation=EvalConfig(test=False),
        )
        history = trainer.run(5)
        assert history.final_train_loss() < np.log(2)

    def test_all_devices_same_label(self):
        """A device whose local data has one class still trains (its local
        optimum pushes everything to that class — the heterogeneity the
        proximal term exists to contain)."""
        rng = np.random.default_rng(0)
        clients = []
        for k in range(3):
            X = rng.normal(size=(12, 4))
            y = np.full(12, k % 2)
            clients.append(
                ClientData(k, X, y, X[:2], y[:2])
            )
        ds = FederatedDataset("mono", clients, num_classes=2)
        model = MultinomialLogisticRegression(dim=4, num_classes=2)
        trainer = FederatedTrainer(
            dataset=ds, model=model, solver=SGDSolver(0.1, batch_size=6),
            mu=1.0, clients_per_round=2, epochs=3, seed=0,
        )
        history = trainer.run(5)
        assert all(np.isfinite(l) for l in history.train_losses)

    def test_dissimilarity_max_clients_wired_through_trainer(self):
        ds = make_synthetic(1.0, 1.0, num_devices=10, seed=0, size_cap=60)
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = FederatedTrainer(
            dataset=ds, model=model, solver=SGDSolver(0.01),
            clients_per_round=4, epochs=2, seed=0,
            track_dissimilarity=True, dissimilarity_max_clients=3,
        )
        history = trainer.run(2)
        assert history.records[0].dissimilarity is not None


class TestRenderingPaths:
    def test_figure_render_with_charts(self):
        """The chart-rendering path (used by `-s` bench output) works on
        real histories."""
        from repro.experiments import figure_cells, run_cells

        cells = [
            dict(cell, rounds=3)
            for cell in figure_cells("figure2", "smoke")
            if cell["panel"] == "Synthetic(0,0)"
        ]
        fig = run_cells(cells)
        out = fig.render(metric="loss", charts=True)
        assert "|" in out  # chart frame present
        assert "FedAvg (FedProx, mu=0)" in out and "FedProx, mu=1" in out
