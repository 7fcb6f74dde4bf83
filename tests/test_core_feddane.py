"""Tests for the FedDane baseline (gradient-corrected subproblem)."""

import numpy as np
import pytest

from repro.core import FedDaneTrainer, make_feddane
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver


def _trainer(dataset, mu=0.0, gradient_clients=None, seed=0, **kwargs):
    model = MultinomialLogisticRegression(dim=6, num_classes=3)
    return FedDaneTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.1, batch_size=8),
        mu=mu,
        clients_per_round=3,
        epochs=3,
        seed=seed,
        gradient_clients=gradient_clients,
        **kwargs,
    )


class TestFedDane:
    def test_runs_and_records(self, toy_dataset):
        history = _trainer(toy_dataset).run(4)
        assert len(history) == 4
        assert all(np.isfinite(r.train_loss) for r in history.records)

    def test_default_gradient_clients_equals_k(self, toy_dataset):
        trainer = _trainer(toy_dataset)
        assert trainer.gradient_clients == 3

    def test_gradient_clients_override(self, toy_dataset):
        trainer = _trainer(toy_dataset, gradient_clients=6)
        assert trainer.gradient_clients == 6

    def test_gradient_clients_validation(self, toy_dataset):
        with pytest.raises(ValueError):
            _trainer(toy_dataset, gradient_clients=0)
        with pytest.raises(ValueError):
            _trainer(toy_dataset, gradient_clients=100)

    def test_describe(self, toy_dataset):
        assert "FedDane" in _trainer(toy_dataset, mu=1.0).describe()

    def test_gradient_estimate_full_participation_is_global_gradient(self, toy_dataset):
        """With c = N, the estimate equals the exact global gradient."""
        trainer = _trainer(toy_dataset, gradient_clients=toy_dataset.num_devices)
        estimate = trainer._estimate_global_gradient(0)
        masses = toy_dataset.sample_fractions()
        exact = sum(
            m * trainer.clients[i].train_gradient(trainer.w)
            for i, m in enumerate(masses)
        )
        np.testing.assert_allclose(estimate, exact)

    def test_correction_cancels_for_single_client_full_estimate(self, toy_dataset):
        """If the estimate were the client's own gradient, the correction
        is zero and FedDane reduces to FedProx on that client."""
        trainer = _trainer(toy_dataset)
        g = trainer.clients[0].train_gradient(trainer.w)
        correction = g - g
        np.testing.assert_array_equal(correction, np.zeros_like(g))

    def test_deterministic(self, toy_dataset):
        h1 = _trainer(toy_dataset, seed=4).run(3)
        h2 = _trainer(toy_dataset, seed=4).run(3)
        np.testing.assert_array_equal(h1.train_losses, h2.train_losses)

    def test_differs_from_fedprox(self, toy_dataset):
        """The correction must change the trajectory (unless degenerate)."""
        from repro.core import FederatedTrainer

        dane = _trainer(toy_dataset, seed=1).run(3)
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        prox = FederatedTrainer(
            dataset=toy_dataset,
            model=model,
            solver=SGDSolver(0.1, batch_size=8),
            mu=0.0,
            clients_per_round=3,
            epochs=3,
            seed=1,
        ).run(3)
        assert dane.train_losses != prox.train_losses

    def test_factory(self, toy_dataset):
        model = MultinomialLogisticRegression(dim=6, num_classes=3)
        trainer = make_feddane(
            toy_dataset, model, learning_rate=0.1, mu=1.0,
            clients_per_round=3, gradient_clients=4,
        )
        assert isinstance(trainer, FedDaneTrainer)
        assert trainer.mu == 1.0
        assert trainer.gradient_clients == 4


# --------------------------------------------------------------------- #
# FedDane on the one round loop: every engine, codec and fault schedule
# --------------------------------------------------------------------- #
def _figure4(engine="serial", rounds=3, **kwargs):
    """Figure 4's bottom-row shape (c > K) at test size; returns (trainer, history)."""
    from repro.datasets import make_synthetic

    dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )
    options = dict(
        mu=1.0, clients_per_round=5, gradient_clients=20, epochs=2, seed=0,
        engine=engine,
    )
    options.update(kwargs)
    trainer = FedDaneTrainer(dataset, model, SGDSolver(0.01, batch_size=10), **options)
    with trainer:
        return trainer, trainer.run(rounds)


def _forked_feddane_losses(rounds=3):
    """The pre-hook FedDaneTrainer, frozen: its own assignment + solve loop."""
    from repro.core import FederatedTrainer
    from repro.datasets import make_synthetic

    dataset = make_synthetic(1.0, 1.0, num_devices=30, seed=0)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes
    )
    reference = FedDaneTrainer(
        dataset, model, SGDSolver(0.01, batch_size=10),
        mu=1.0, clients_per_round=5, gradient_clients=20, epochs=2, seed=0,
    )

    def forked(round_idx, selected):
        g_estimate = reference._estimate_global_gradient(round_idx)
        updates = []
        for cid in selected:
            client = reference.clients[cid]
            updates.append(
                client.local_solve(
                    w_global=reference.w,
                    mu=reference.mu,
                    epochs=reference.epochs,
                    rng=np.random.default_rng(
                        np.random.SeedSequence([reference.seed, round_idx, cid, 0])
                    ),
                    correction=g_estimate - client.train_gradient(reference.w),
                )
            )
        return updates, [], []

    reference._local_updates = forked
    return reference.run(rounds).train_losses


class TestRunsOnTheOneLoop:
    def test_serial_history_equals_the_forked_loop(self):
        _, history = _figure4()
        assert history.train_losses == _forked_feddane_losses()

    def test_track_gamma_is_measured(self):
        _, history = _figure4(track_gamma=True)
        assert all(r.gamma_mean is not None for r in history.records)
        assert all(r.gamma_max >= r.gamma_mean for r in history.records)

    def test_lossy_codec_is_applied_and_accounted(self):
        trainer, history = _figure4(comms="comms:codec=qsgd,bits=8,ef=true")
        _, dense = _figure4()
        assert trainer.comms_stats["bytes_up"] > 0
        assert trainer.comms_stats["compression_ratio"] > 1
        assert history.train_losses != dense.train_losses

    def test_cohort_engine_within_tolerance(self):
        _, serial = _figure4()
        _, cohort = _figure4(engine="cohort")
        np.testing.assert_allclose(
            cohort.train_losses, serial.train_losses, rtol=0, atol=1e-12
        )
        assert cohort.test_accuracies == serial.test_accuracies

    @pytest.mark.slow
    def test_parallel_engine_equals_serial(self):
        _, serial = _figure4()
        _, parallel = _figure4(engine="parallel:2")
        assert parallel.records == serial.records

    def test_solve_spans_are_emitted(self):
        from repro.telemetry import InMemorySink, Telemetry

        sink = InMemorySink()
        _figure4(rounds=1, telemetry=Telemetry([sink]))
        spans = [e for e in sink.events if e.get("name") == "solve:client"]
        assert len(spans) == 5

    def test_replays_when_gradient_clients_differs_from_k(self, tmp_path):
        """c = 20, K = 5: the recipe carries c, so the rebuilt trainer has it."""
        from repro.telemetry import JSONLSink, Telemetry
        from repro.telemetry.ledger import load_run
        from repro.telemetry.replay import rebuild_trainer, replay_run

        path = tmp_path / "feddane.jsonl"
        _figure4(rounds=4, telemetry=Telemetry([JSONLSink(str(path))]))
        artifact = load_run(str(path))
        assert artifact.manifest["recipe"]["gradient_clients"] == 20
        with rebuild_trainer(artifact) as rebuilt:
            assert rebuilt.gradient_clients == 20
        report = replay_run(str(path))
        assert report.matches, report.describe()
        from repro.trace import main

        assert main(["replay", str(path)]) == 0

    def test_chaos_faults_run_and_replay(self, tmp_path):
        from repro.faults.models import ChaosFaults
        from repro.faults.policy import FaultPolicy
        from repro.telemetry import JSONLSink, Telemetry
        from repro.telemetry.replay import replay_run

        path = tmp_path / "chaos.jsonl"
        trainer, history = _figure4(
            rounds=4,
            faults=ChaosFaults(0.4, seed=3),
            fault_policy=FaultPolicy(on_crash="retry"),
            telemetry=Telemetry([JSONLSink(str(path))]),
        )
        assert trainer.fault_stats["injected"] > 0
        assert all(np.isfinite(r.train_loss) for r in history.records)
        report = replay_run(str(path))
        assert report.matches, report.describe()


def test_fedprox_manifest_has_no_feddane_key(toy_dataset):
    from repro.core import FederatedTrainer
    from repro.telemetry import InMemorySink, Telemetry

    sink = InMemorySink()
    model = MultinomialLogisticRegression(dim=6, num_classes=3)
    with FederatedTrainer(
        toy_dataset, model, SGDSolver(0.1, batch_size=8),
        clients_per_round=3, epochs=1, telemetry=Telemetry([sink]),
    ) as trainer:
        trainer.run(1)
    assert "gradient_clients" not in sink.events[0]["recipe"]
