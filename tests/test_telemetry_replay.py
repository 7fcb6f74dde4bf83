"""Replay-parity tests: re-executed runs must reproduce their ledgers.

The determinism protocol makes every run a pure function of its manifest
(seeds, config, dataset recipe), so :func:`repro.telemetry.replay.replay_run`
must report a bit-identical match across executors, sampled evaluation,
fault injection, and adaptive µ — and pinpoint the divergence when the
artifact was tampered with.
"""

from __future__ import annotations

import json

import pytest

from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.config import EvalConfig
from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults.models import ChaosFaults
from repro.models import MultinomialLogisticRegression
from repro.optim import AdamSolver, SGDSolver
from repro.systems.stragglers import FractionStragglers
from repro.telemetry import JSONLSink, Telemetry, read_jsonl
from repro.telemetry.replay import (
    ReplayError,
    build_dataset,
    build_model,
    build_solver,
    rebuild_trainer,
    replay_run,
)
from repro.telemetry.ledger import load_run


def record_run(path, rounds=3, solver=None, dataset=None, **kwargs):
    """Record a small ledgered run; returns its history."""
    dataset = dataset if dataset is not None else make_synthetic(
        0.5, 0.5, num_devices=10, seed=2, size_cap=100
    )
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    solver = solver or SGDSolver(learning_rate=0.05, batch_size=8)
    telemetry = Telemetry([JSONLSink(str(path))], run_id="recorded")
    options = dict(
        clients_per_round=4, mu=0.1, epochs=1, seed=9, telemetry=telemetry
    )
    options.update(kwargs)
    trainer = FederatedTrainer(dataset, model, solver, **options)
    try:
        return trainer.run(rounds)
    finally:
        trainer.close()


class TestComponentRegistries:
    def test_build_dataset_from_recipe(self):
        original = make_synthetic(0.5, 0.5, num_devices=6, seed=4, size_cap=60)
        rebuilt = build_dataset(original.recipe)
        assert rebuilt.num_devices == original.num_devices
        assert (rebuilt[0].train_x == original[0].train_x).all()
        assert (rebuilt[3].train_y == original[3].train_y).all()

    def test_null_recipe_refused(self):
        with pytest.raises(ReplayError, match="recipe is null"):
            build_dataset(None)

    def test_unknown_builder_refused(self):
        with pytest.raises(ReplayError, match="unknown dataset builder"):
            build_dataset({"builder": "make_mystery"})

    def test_build_model_round_trip(self):
        model = MultinomialLogisticRegression(dim=4, num_classes=3, seed=7)
        clone = build_model(model.spec())
        assert (clone.get_params() == model.get_params()).all()

    def test_build_solver_round_trip(self):
        solver = AdamSolver(learning_rate=0.02, batch_size=16, beta1=0.8)
        clone = build_solver(solver.spec())
        assert type(clone) is AdamSolver
        assert clone.learning_rate == 0.02
        assert clone.batch_size == 16
        assert clone.beta1 == 0.8

    def test_unknown_model_refused(self):
        with pytest.raises(ReplayError, match="unknown model"):
            build_model({"type": "Transformer"})


class TestReplayParity:
    @pytest.mark.parametrize("executor", ["serial", "parallel:2", "cohort"])
    def test_executors_replay_bit_identically(self, tmp_path, executor):
        path = tmp_path / "run.jsonl"
        record_run(path, engine=executor)
        report = replay_run(str(path))
        assert report.issues == []
        assert report.matches, report.describe()
        assert report.rounds_compared == 3
        assert report.recorded_digest == report.replayed_digest

    def test_chaos_run_replays(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(
            path,
            engine="cohort",
            systems=FractionStragglers(0.5, seed=3),
            faults=ChaosFaults(0.3, seed=11),
        )
        report = replay_run(str(path))
        assert report.matches, report.describe()
        # Chaos actually fired: some round lists a straggler or drop.
        records = load_run(str(path)).history_records()
        assert any(r["stragglers"] or r["dropped"] for r in records)

    def test_sampled_eval_run_replays(self, tmp_path):
        path = tmp_path / "run.jsonl"
        dataset = make_synthetic(1.0, 1.0, num_devices=20, seed=6, size_cap=80)
        record_run(
            path,
            dataset=dataset,
            rounds=4,
            clients_per_round=5,
            evaluation=EvalConfig(
                strategy="sampled", sample_size=8, strata=4, full_every=3
            ),
        )
        report = replay_run(str(path))
        assert report.matches, report.describe()
        records = load_run(str(path)).history_records()
        assert any(r["eval_sample_size"] is not None for r in records)

    def test_adaptive_mu_run_replays(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(
            path,
            rounds=4,
            mu_controller=AdaptiveMuController(
                initial_mu=0.5, step=2.0, patience=1
            ),
        )
        report = replay_run(str(path))
        assert report.matches, report.describe()

    def test_adam_solver_run_replays(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(
            path, solver=AdamSolver(learning_rate=0.01, batch_size=8)
        )
        report = replay_run(str(path))
        assert report.matches, report.describe()


class TestReplayDivergence:
    def test_tampered_record_pinpointed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path)
        events = read_jsonl(str(path))
        for event in events:
            if event["type"] == "round_record" and event["round"] == 1:
                event["record"]["train_loss"] += 1e-12
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        report = replay_run(str(path))
        assert not report.matches
        first = report.first_divergence
        assert first.round_idx == 1
        assert first.field == "train_loss"
        assert any("digest mismatch" in issue for issue in report.issues)
        assert "round 1" in report.describe()

    def test_dataset_without_recipe_needs_override(self, tmp_path):
        path = tmp_path / "run.jsonl"
        import numpy as np

        rng = np.random.default_rng(3)
        dataset = make_synthetic(0.5, 0.5, num_devices=8, rng=rng, size_cap=60)
        assert dataset.recipe is None
        record_run(path, dataset=dataset)
        with pytest.raises(ReplayError, match="recipe is null"):
            replay_run(str(path))
        # Handing the original federation back enables the replay.
        report = replay_run(str(path), dataset=dataset)
        assert report.matches, report.describe()


class TestRebuildTrainer:
    def test_rebuilt_trainer_mirrors_original(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(
            path,
            engine="cohort",
            systems=FractionStragglers(0.4, seed=8),
            mu=0.7,
            clients_per_round=4,
        )
        trainer = rebuild_trainer(load_run(str(path)))
        try:
            assert trainer.mu == 0.7
            assert trainer.seed == 9
            assert trainer.executor_mode == "cohort"
            assert trainer.sampling.clients_per_round == 4
            assert type(trainer.systems).__name__ == "FractionStragglers"
            assert trainer.systems.fraction == 0.4
        finally:
            trainer.close()
