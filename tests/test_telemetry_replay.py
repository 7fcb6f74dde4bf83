"""Replay-parity tests: re-executed runs must reproduce their ledgers.

The determinism protocol makes every run a pure function of its manifest
(seeds, config, dataset recipe), so :func:`repro.telemetry.replay.replay_run`
must report a bit-identical match across executors, sampled evaluation,
fault injection, and adaptive µ — and pinpoint the divergence when the
artifact was tampered with.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.adaptive_mu import AdaptiveMuController
from repro.core.config import EvalConfig
from repro.core.server import FederatedTrainer
from repro.datasets import (
    make_femnist_like,
    make_mnist_like,
    make_shakespeare_like,
    make_synthetic,
)
from repro.faults.models import ChaosFaults
from repro.models import CharLSTM, MultinomialLogisticRegression
from repro.optim import AdamSolver, SGDSolver
from repro.systems import ClockDrivenSystems, sample_fleet
from repro.systems.stragglers import FractionStragglers, NoHeterogeneity
from repro.trace import main as trace_main
from repro.telemetry import JSONLSink, Telemetry, read_jsonl
from repro.spec import build
from repro.telemetry.replay import (
    EPOCH_DRIFT_BOUND,
    ReplayError,
    rebuild_trainer,
    replay_run,
)
from repro.telemetry.ledger import NUMERICS_EPOCH, history_digest, load_run

#: Six rounds of a 12-device MNIST-like federation (2404 float32 train
#: rows: two census blocks, 30 sub-blocks; devices of up to 1141 rows),
#: loss evaluated every round, recorded at the last epoch-0 commit
#: (ed75d65, in its manifest).  It cannot be regenerated from this tree —
#: any ledger written here is epoch 1 — and need not be: its recipe is in it.
EPOCH0_FIXTURE = Path(__file__).parent / "fixtures" / "epoch0_mnist_like.jsonl"


def record_run(path, rounds=3, solver=None, dataset=None, **kwargs):
    """Record a small ledgered run; returns its history."""
    dataset = dataset if dataset is not None else make_synthetic(
        0.5, 0.5, num_devices=10, seed=2, size_cap=100
    )
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    model = kwargs.pop("model", model)
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


class TestComponentRegistry:
    """What ``build`` refuses in a recipe (the round trip of every registered
    component and builder is enumerated in ``tests/test_spec.py``)."""

    def test_unknown_builder_refused(self):
        with pytest.raises(ReplayError, match="unknown dataset builder"):
            build({"builder": "make_mystery"}, "dataset")

    def test_unknown_model_refused(self):
        with pytest.raises(ReplayError, match="unknown model type 'Transformer'"):
            build({"type": "Transformer"}, "model")

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ({"type": "SGDSolver", "learning_rate": -1.0}, "learning_rate"),
            ({"type": "MomentumSGDSolver", "learning_rate": -1.0}, "learning_rate"),
            ({"type": "MomentumSGDSolver", "learning_rate": 0.1, "batch_size": 0},
             "batch_size"),
            ({"type": "AdamSolver", "batch_size": 0}, "batch_size"),
            ({"type": "SGDSolver", "learning_rate": 0.1, "step": 3}, "step"),
        ],
    )
    def test_tampered_solver_spec_fails_in_build(self, spec, fragment):
        with pytest.raises(ReplayError, match=f"solver type .* rejected: .*{fragment}"):
            build(spec, "solver")


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


def _mnist_async_qsgd_chaos():
    """The ``async_qsgd_ledger`` benchmark shape at 20 devices."""
    from repro.faults.policy import FaultPolicy

    return dict(
        dataset=make_mnist_like(num_devices=20, total_samples=1200, dim=64, seed=5),
        engine="async:window=2,arrivals=seeded",
        comms="comms:codec=qsgd,bits=8,ef=true",
        faults=ChaosFaults(0.3, seed=4),
        fault_policy=FaultPolicy(on_crash="retry"),
    )


def _femnist_parallel_topk():
    return dict(
        dataset=make_femnist_like(num_devices=12, total_samples=900, dim=64, seed=6),
        engine="parallel:2",
        comms="comms:codec=topk,k=64",
    )


def _synthetic_clock_driven_async():
    fleet = sample_fleet(12, np.random.default_rng(12))
    return dict(
        dataset=make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=60),
        systems=ClockDrivenSystems(fleet, deadline=10.0),
        engine="async:window=1,arrivals=systems",
    )


def _shakespeare_like():
    return dict(
        dataset=make_shakespeare_like(
            num_devices=4, vocab_size=12, seq_len=6, samples_per_device_mean=30, seed=2
        ),
        model=CharLSTM(vocab_size=12, embed_dim=4, hidden=6, num_layers=1, seed=1),
        clients_per_round=2,
    )


class TestReplayFromTheFileAlone:
    """No ``dataset=``: the JSONL file is all that ``replay_run`` and
    ``python -m repro.trace replay`` get (FedDane with c != K is
    ``test_core_feddane.py::test_replays_when_gradient_clients_differs_from_k``)."""

    @pytest.mark.parametrize(
        "scenario",
        [
            _mnist_async_qsgd_chaos,
            _femnist_parallel_topk,
            _synthetic_clock_driven_async,
            _shakespeare_like,
        ],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_match(self, tmp_path, capsys, scenario):
        path = tmp_path / "run.jsonl"
        record_run(path, **scenario())
        report = replay_run(str(path))
        assert report.issues == []
        assert report.matches, report.describe()
        assert trace_main(["replay", str(path)]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_what_the_registry_cannot_build_is_one_line_and_exit_1(
        self, tmp_path, capsys
    ):
        class HomeGrownStragglers(NoHeterogeneity):
            """Not registered, so the manifest can only name it."""

        path = tmp_path / "run.jsonl"
        record_run(path, systems=HomeGrownStragglers())
        with pytest.raises(
            ReplayError, match="unknown cohorting.systems type 'HomeGrownStragglers'"
        ):
            replay_run(str(path))
        assert trace_main(["replay", str(path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("replay impossible: unknown cohorting.systems type")
        assert len(err.splitlines()) == 1


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


def _edit_ledger(source, target, edit):
    """Copy a ledger with ``edit(events)`` applied and its footer re-sealed,
    so the only thing wrong with the copy is what replay has to find."""
    events = read_jsonl(str(source))
    edit(events)
    records = [e["record"] for e in events if e["type"] == "round_record"]
    events[-1]["digest"] = history_digest(records)
    target.write_text("".join(json.dumps(e) + "\n" for e in events))
    return str(target)


def _record(events, round_idx):
    return next(
        e["record"] for e in events
        if e["type"] == "round_record" and e["round"] == round_idx
    )


class TestPrefixReplay:
    """``num_rounds`` below the recorded count checks the first rounds only."""

    def test_prefix_of_an_untampered_ledger_matches(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_run(path, rounds=4, evaluation=EvalConfig(every=3))
        report = replay_run(str(path), num_rounds=2)
        # Round 1 is unevaluated in the recording, which went on; the
        # replay must not count its own end-of-run evaluation against it.
        assert load_run(str(path)).round_records[1]["test_accuracy"] is None
        assert report.matches, report.describe()
        assert (report.rounds_compared, report.rounds_recorded) == (2, 4)
        assert report.recorded_digest == report.replayed_digest
        assert trace_main(["replay", str(path), "--rounds", "2"]) == 0
        assert "MATCH: 2 of 4 rounds" in capsys.readouterr().out

    def test_prefix_still_finds_a_divergence_inside_it(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path, rounds=4)
        edited = _edit_ledger(
            path, tmp_path / "edited.jsonl",
            lambda events: _record(events, 1)["selected"].reverse(),
        )
        assert replay_run(edited, num_rounds=1).matches
        report = replay_run(edited, num_rounds=3)
        assert not report.matches
        assert (report.first_divergence.round_idx, report.first_divergence.field) == (
            1, "selected",
        )

    def test_more_rounds_than_recorded_is_a_mismatch(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        record_run(path, rounds=2)
        report = replay_run(str(path), num_rounds=3)
        assert not report.matches
        assert report.mismatches[-1].field == "rounds"
        assert trace_main(["replay", str(path), "--rounds", "3"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestNumericsEpoch:
    """Bit-identity is owed within an epoch, a bound across two (DESIGN §15)."""

    def test_this_tree_stamps_its_epoch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path, rounds=1)
        artifact = load_run(str(path))
        assert artifact.manifest["environment"]["numerics_epoch"] == NUMERICS_EPOCH == 1
        assert artifact.numerics_epoch == 1

    def test_epoch0_fixture_replays_with_the_epoch_line(self, capsys):
        """Recorded at the parent commit: losses moved by ulps, nothing else."""
        artifact = load_run(str(EPOCH0_FIXTURE))
        assert "numerics_epoch" not in artifact.manifest["environment"]
        assert artifact.numerics_epoch == 0
        report = replay_run(artifact)
        assert report.issues == []
        assert report.matches, report.describe()
        # On the BLAS that recorded it four of the six losses differ, by
        # up to 3.6e-16; another build may differ elsewhere, or nowhere.
        if report.drift is not None:
            assert report.drift.field == "train_loss"
            assert report.drift.deviation <= EPOCH_DRIFT_BOUND
        assert trace_main(["replay", str(EPOCH0_FIXTURE)]) == 0
        assert (
            "recorded under numerics epoch 0, this tree is epoch 1: 6 rounds, "
            "exact fields equal, max relative deviation" in capsys.readouterr().out
        )

    def test_cross_epoch_exact_fields_stay_exact(self, tmp_path):
        def flip(events):
            selected = _record(events, 2)["selected"]
            selected[0] = (selected[0] + 1) % 12

        report = replay_run(_edit_ledger(EPOCH0_FIXTURE, tmp_path / "e.jsonl", flip))
        assert report.issues == []
        assert not report.matches
        assert (report.first_divergence.round_idx, report.first_divergence.field) == (
            2, "selected",
        )
        assert "epoch 0" in report.describe() and "MISMATCH" in report.describe()

    def test_cross_epoch_floats_are_held_to_the_bound(self, tmp_path):
        def nudge(events):
            _record(events, 3)["train_loss"] *= 1 + 1e-9

        report = replay_run(_edit_ledger(EPOCH0_FIXTURE, tmp_path / "e.jsonl", nudge))
        assert not report.matches
        assert report.first_divergence.field == "train_loss"

    def test_same_epoch_is_still_bit_exact(self, tmp_path):
        """One ulp on one recorded loss of a ledger this tree wrote."""
        path = tmp_path / "run.jsonl"
        record_run(path, rounds=3)

        def one_ulp(events):
            record = _record(events, 1)
            record["train_loss"] = float(np.nextafter(record["train_loss"], np.inf))

        report = replay_run(_edit_ledger(path, tmp_path / "e.jsonl", one_ulp))
        assert report.issues == []
        assert not report.matches
        assert (report.first_divergence.round_idx, report.first_divergence.field) == (
            1, "train_loss",
        )
        assert "MISMATCH" in report.describe()
