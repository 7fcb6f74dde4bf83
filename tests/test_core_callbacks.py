"""Tests for training callbacks and early stopping."""

import numpy as np
import pytest

from repro.core import EarlyStopping, FederatedTrainer, LambdaCallback
from repro.core.config import EvalConfig
from repro.core.history import RoundRecord
from repro.metrics.convergence import classify_run
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver


def _record(round_idx, loss):
    return RoundRecord(round_idx=round_idx, train_loss=loss)


class TestEarlyStopping:
    def test_converges_on_flat_pair(self):
        cb = EarlyStopping(tol=1e-4)
        assert not cb.on_round_end(_record(0, 1.0))
        assert cb.on_round_end(_record(1, 1.0 + 1e-5))
        assert cb.stopped_reason == "converged"

    def test_diverges_on_jump(self):
        cb = EarlyStopping(divergence_window=3, divergence_jump=1.0)
        losses = [2.0, 1.5, 1.2, 3.5]  # +2.3 over 3 rounds
        fired = [cb.on_round_end(_record(i, l)) for i, l in enumerate(losses)]
        assert fired == [False, False, False, True]
        assert cb.stopped_reason == "diverged"

    def test_keeps_running_on_healthy_descent(self):
        cb = EarlyStopping()
        for i, loss in enumerate([2.0, 1.5, 1.1, 0.8, 0.6]):
            assert not cb.on_round_end(_record(i, loss))
        assert cb.stopped_reason is None

    def test_unevaluated_rounds_are_not_part_of_the_series(self):
        cb = EarlyStopping(tol=0.05)
        losses = [1.0, None, 0.9, None, None, 0.88]
        fired = [cb.on_round_end(_record(i, l)) for i, l in enumerate(losses)]
        assert fired == [False] * 5 + [True]
        assert cb.stopped_reason == "converged"

    @pytest.mark.parametrize(
        "losses, status",
        [
            ([2.0, 1.5, 1.2, 1.1, 1.09995, 1.0999, 0.5], "converged"),
            ([2.0, 1.9, 1.8] + [1.7 + 0.2 * i for i in range(12)], "diverged"),
        ],
    )
    def test_stops_where_classify_run_does(self, losses, status):
        cb = EarlyStopping()
        fired = [cb.on_round_end(_record(i, l)) for i, l in enumerate(losses)]
        outcome = classify_run(losses)
        assert outcome.status == cb.stopped_reason == status
        assert fired.index(True) == outcome.stop_round

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(tol=0.0)
        with pytest.raises(ValueError):
            EarlyStopping(divergence_window=0)


class TestLambdaCallback:
    def test_wraps_function(self):
        fired = []
        cb = LambdaCallback(lambda r: fired.append(r.round_idx) or False)
        assert not cb.on_round_end(_record(0, 1.0))
        assert fired == [0]

    def test_truthy_return_stops(self):
        cb = LambdaCallback(lambda r: r.train_loss < 0.5)
        assert not cb.on_round_end(_record(0, 1.0))
        assert cb.on_round_end(_record(1, 0.4))


class TestTrainerIntegration:
    def _trainer(self, dataset, callbacks, **kwargs):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        return FederatedTrainer(
            dataset=dataset,
            model=model,
            solver=SGDSolver(0.1, batch_size=8),
            clients_per_round=3,
            epochs=4,
            seed=0,
            callbacks=callbacks,
            **kwargs,
        )

    def test_callback_sees_every_round(self, toy_dataset):
        seen = []
        trainer = self._trainer(
            toy_dataset, [LambdaCallback(lambda r: seen.append(r.round_idx) or False)]
        )
        trainer.run(4)
        assert seen == [0, 1, 2, 3]

    def test_stop_request_truncates_run(self, toy_dataset):
        trainer = self._trainer(
            toy_dataset, [LambdaCallback(lambda r: r.round_idx >= 2)]
        )
        history = trainer.run(10)
        assert len(history) == 3  # rounds 0, 1, 2

    def test_early_stopping_on_convergence(self, toy_dataset):
        stopper = EarlyStopping(tol=0.5)  # generous: triggers quickly
        trainer = self._trainer(toy_dataset, [stopper])
        history = trainer.run(30)
        assert len(history) < 30
        assert stopper.stopped_reason == "converged"

    def test_early_stopping_under_a_sparse_loss_cadence(self, toy_dataset):
        stopper = EarlyStopping(tol=0.5)
        trainer = self._trainer(
            toy_dataset, [stopper], evaluation=EvalConfig(train_every=3)
        )
        history = trainer.run(30)
        assert stopper.stopped_reason == "converged"
        # Stopped on an evaluated round, the one classify_run names.
        outcome = classify_run(history.train_losses, tol=0.5)
        assert outcome.status == "converged"
        assert history.records[-1].round_idx == 3 * outcome.stop_round

    def test_no_callbacks_runs_full_budget(self, toy_dataset):
        trainer = self._trainer(toy_dataset, [])
        assert len(trainer.run(5)) == 5
