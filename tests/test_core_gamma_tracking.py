"""Tests for per-round γ-inexactness tracking (Corollary 9 empirics)."""

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems import FractionStragglers


def _trainer(dataset, track=True, epochs=5, systems=None, seed=0, telemetry=None):
    model = MultinomialLogisticRegression(dim=6, num_classes=3)
    return FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.1, batch_size=8),
        clients_per_round=3,
        epochs=epochs,
        systems=systems,
        seed=seed,
        track_gamma=track,
        telemetry=telemetry,
    )


class TestGammaTracking:
    def test_disabled_by_default(self, toy_dataset):
        history = _trainer(toy_dataset, track=False).run(2)
        assert all(r.gamma_mean is None for r in history.records)

    def test_recorded_when_enabled(self, toy_dataset):
        history = _trainer(toy_dataset).run(3)
        for r in history.records:
            assert r.gamma_mean is not None
            assert r.gamma_max is not None
            assert 0.0 <= r.gamma_mean <= r.gamma_max

    def test_gamma_below_one_after_real_work(self, toy_dataset):
        """A few epochs of SGD must reduce the subproblem gradient."""
        history = _trainer(toy_dataset, epochs=5).run(3)
        assert history.records[0].gamma_mean < 1.0

    def test_more_epochs_smaller_gamma(self, toy_dataset):
        little = _trainer(toy_dataset, epochs=1, seed=3).run(1)
        lots = _trainer(toy_dataset, epochs=10, seed=3).run(1)
        assert lots.records[0].gamma_mean < little.records[0].gamma_mean

    def test_stragglers_raise_gamma(self, toy_dataset):
        """Partial work (variable γ_k^t, Definition 2) yields larger
        measured γ than full work in the same environment."""
        full = _trainer(toy_dataset, epochs=10, seed=1).run(1)
        straggling = _trainer(
            toy_dataset, epochs=10, seed=1,
            systems=FractionStragglers(1.0, seed=2),
        ).run(1)
        assert (
            straggling.records[0].gamma_mean > full.records[0].gamma_mean
        )

    def test_history_accessor(self, toy_dataset):
        history = _trainer(toy_dataset).run(4)
        assert len(history.gamma_means) == 4
        assert all(r.gamma_mean is not None for r in history.records)

    def test_gamma_persists_through_io(self, toy_dataset, tmp_path):
        """γ reaches the run's one on-disk record, the ledger, unrounded."""
        from repro.telemetry import JSONLSink, Telemetry, load_run

        path = tmp_path / "run.jsonl"
        trainer = _trainer(toy_dataset, telemetry=Telemetry([JSONLSink(str(path))]))
        try:
            history = trainer.run(2)
        finally:
            trainer.close()
        restored = load_run(str(path)).history_records()
        assert [r["gamma_mean"] for r in restored] == history.gamma_means
        assert [r["gamma_max"] for r in restored] == [
            r.gamma_max for r in history.records
        ]
