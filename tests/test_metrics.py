"""Tests for convergence detection and standalone evaluation helpers."""

import numpy as np
import pytest

from repro.metrics import (
    RunOutcome,
    accuracy_at_outcome,
    classify_run,
    federated_test_accuracy,
    federated_train_loss,
)


class TestClassifyRun:
    def test_converged_on_flat_tail(self):
        losses = [1.0, 0.5, 0.4, 0.39999, 0.39998]
        outcome = classify_run(losses)
        assert outcome.status == "converged"
        assert outcome.stop_round == 3

    def test_diverged_on_jump(self):
        # Strictly decreasing prefix (so convergence never fires), then a jump.
        losses = [2.0 - 0.05 * i for i in range(10)] + [3.5]
        outcome = classify_run(losses)
        assert outcome.status == "diverged"
        assert outcome.stop_round == 10

    def test_exhausted_when_neither(self):
        losses = [1.0, 0.9, 0.8, 0.7]
        outcome = classify_run(losses)
        assert outcome.status == "exhausted"
        assert outcome.stop_round == 3

    def test_divergence_needs_full_window(self):
        # A jump over fewer than 10 rounds does not count.
        losses = [1.0, 2.5, 2.4, 2.3]
        assert classify_run(losses).status == "exhausted"

    def test_convergence_checked_before_later_divergence(self):
        losses = [1.0, 1.00001] + [5.0] * 15
        outcome = classify_run(losses)
        assert outcome.status == "converged"
        assert outcome.stop_round == 1

    def test_custom_tolerance(self):
        losses = [1.0, 0.95, 0.92]
        assert classify_run(losses, tol=0.04).status == "converged"

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            classify_run([])

    def test_single_point_exhausted(self):
        assert classify_run([1.0]).status == "exhausted"


class TestAccuracyAtOutcome:
    def test_accuracy_at_convergence_point(self):
        losses = [1.0, 0.5, 0.49999, 0.3]
        accs = [0.1, 0.2, 0.3, 0.9]
        assert accuracy_at_outcome(losses, accs) == 0.3

    def test_skipped_evaluations_fall_back(self):
        losses = [1.0, 0.5, 0.49999]
        accs = [0.1, None, None]
        assert accuracy_at_outcome(losses, accs) == 0.1

    def test_exhausted_uses_last(self):
        losses = [1.0, 0.9, 0.8]
        accs = [0.1, 0.2, 0.3]
        assert accuracy_at_outcome(losses, accs) == 0.3

    def test_parallel_length_required(self):
        with pytest.raises(ValueError):
            accuracy_at_outcome([1.0], [0.1, 0.2])

    def test_all_none_returns_none(self):
        assert accuracy_at_outcome([1.0, 0.99999], [None, None]) is None


class TestEvaluationHelpers:
    def test_train_loss_matches_global_mean(self, toy_dataset, toy_model):
        w = np.zeros(toy_model.n_params)
        loss = federated_train_loss(toy_model, toy_dataset, w)
        assert loss == pytest.approx(np.log(3))

    def test_test_accuracy_in_range(self, toy_dataset, toy_model):
        acc = federated_test_accuracy(toy_model, toy_dataset, np.zeros(toy_model.n_params))
        assert 0.0 <= acc <= 1.0

    def test_weighted_loss_uses_masses(self, toy_model):
        """A big client's loss dominates the weighted mean."""
        from tests.conftest import make_toy_client
        from repro.datasets import FederatedDataset

        big = make_toy_client(0, n_train=90, seed=0)
        small = make_toy_client(1, n_train=10, seed=99, shift=3.0)
        ds = FederatedDataset("w", [big, small], num_classes=3)
        w = np.zeros(toy_model.n_params)
        loss = federated_train_loss(toy_model, ds, w)
        toy_model.set_params(w)
        big_loss = toy_model.loss(big.train_x, big.train_y)
        small_loss = toy_model.loss(small.train_x, small.train_y)
        assert loss == pytest.approx(0.9 * big_loss + 0.1 * small_loss)
