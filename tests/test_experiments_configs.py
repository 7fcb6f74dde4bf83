"""Tests for experiment scales and workload construction."""

import numpy as np
import pytest

from repro.experiments import (
    DEFAULT,
    FIGURE1_BEST_MU,
    PAPER,
    SCALES,
    SMOKE,
    figure1_workloads,
    get_scale,
    synthetic_suite_workloads,
)
from repro.experiments.configs import (
    make_mnist_workload,
    make_sent140_workload,
    make_shakespeare_workload,
    make_synthetic_workload,
)


class TestScales:
    def test_all_presets_registered(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_get_scale(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale("default") is DEFAULT
        assert get_scale("paper") is PAPER

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("huge")

    def test_paper_scale_matches_paper_parameters(self):
        assert PAPER.rounds == 200
        assert PAPER.clients_per_round == 10
        assert PAPER.epochs == 20
        assert PAPER.batch_size == 10
        assert PAPER.image_devices == 1000
        assert PAPER.image_samples == 69_035
        assert PAPER.image_dim == 784
        assert PAPER.synthetic_devices == 30
        assert PAPER.shakespeare_devices == 143
        assert PAPER.sent140_devices == 772

    def test_smoke_smaller_than_default(self):
        assert SMOKE.rounds < DEFAULT.rounds
        assert SMOKE.image_devices <= DEFAULT.image_devices


class TestWorkloads:
    def test_figure1_workload_names_and_order(self):
        workloads = figure1_workloads(SMOKE)
        assert list(workloads) == [
            "Synthetic(1,1)",
            "MNIST-like",
            "FEMNIST-like",
            "Shakespeare-like",
            "Sent140-like",
        ]

    def test_best_mu_covers_all_figure1_datasets(self):
        assert set(FIGURE1_BEST_MU) == set(figure1_workloads(SMOKE))

    def test_synthetic_suite_order(self):
        workloads = synthetic_suite_workloads(SMOKE)
        assert list(workloads) == [
            "Synthetic-IID",
            "Synthetic(0,0)",
            "Synthetic(0.5,0.5)",
            "Synthetic(1,1)",
        ]

    def test_paper_learning_rates(self):
        assert make_synthetic_workload(SMOKE, 1, 1).learning_rate == 0.01
        assert make_mnist_workload(SMOKE).learning_rate == 0.03
        assert make_shakespeare_workload(SMOKE).learning_rate == 0.8
        assert make_sent140_workload(SMOKE).learning_rate == 0.3

    def test_model_factory_matches_dataset(self):
        w = make_mnist_workload(SMOKE)
        model = w.model_factory()
        X = w.dataset[0].train_x
        assert model.predict(X).shape == (len(X),)

    def test_lstm_workloads_use_lstm_round_budget(self):
        assert make_shakespeare_workload(SMOKE).rounds == SMOKE.lstm_rounds
        assert make_synthetic_workload(SMOKE, 1, 1).rounds == SMOKE.rounds

    def test_workload_factories_fresh_models(self):
        w = make_synthetic_workload(SMOKE, 1, 1)
        m1, m2 = w.model_factory(), w.model_factory()
        m1.set_params(np.ones(m1.n_params))
        assert np.all(m2.get_params() == 0.0)
