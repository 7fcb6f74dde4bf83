"""Determinism suite: serial and parallel executors are bit-identical.

The paper's protocol fixes selected devices, stragglers, and mini-batch
orders across runs; the runtime engine additionally guarantees that the
*executor* is not part of the experiment — a ``ParallelExecutor`` with any
worker count must reproduce ``SerialExecutor`` histories bit for bit
(losses, accuracies, selections, straggler sets, γ statistics).
"""

from __future__ import annotations

import os

import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import ParallelExecutor, SerialExecutor, parallel
from repro.systems import FractionStragglers
from repro.systems.stragglers import PowerLawStragglers
from repro.telemetry import history_digest

pytestmark = pytest.mark.slow

ROUNDS = 4

#: The largest test pool: four workers, fewer on a smaller host (a pool
#: larger than the host's cores only warns and adds hand-offs).
MAX_WORKERS = min(4, os.cpu_count() or 1)


def _run(dataset, *, mu, drop, executor=None, eval_mode="auto", seed=1,
         **overrides):
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    kwargs = dict(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.01, batch_size=10),
        mu=mu,
        drop_stragglers=drop,
        clients_per_round=4,
        epochs=2,
        systems=FractionStragglers(0.5, seed=3),
        track_gamma=True,
        seed=seed,
        engine=executor,
        evaluation=EvalConfig(mode=eval_mode),
    )
    kwargs.update(overrides)
    trainer = FederatedTrainer(**kwargs)
    try:
        return trainer.run(ROUNDS)
    finally:
        trainer.close()


def _assert_bit_identical(h_serial, h_parallel):
    assert len(h_serial) == len(h_parallel) == ROUNDS
    for r1, r2 in zip(h_serial.records, h_parallel.records):
        assert r1.train_loss == r2.train_loss  # exact, not approx
        assert r1.test_accuracy == r2.test_accuracy
        assert r1.selected == r2.selected
        assert r1.stragglers == r2.stragglers
        assert r1.dropped == r2.dropped
        assert r1.gamma_mean == r2.gamma_mean
        assert r1.gamma_max == r2.gamma_max
        assert r1.mu == r2.mu


class TestSerialParallelBitIdentical:
    def test_fedprox_with_stragglers(self, synthetic_small):
        h_serial = _run(synthetic_small, mu=0.5, drop=False)
        h_parallel = _run(
            synthetic_small, mu=0.5, drop=False,
            executor=ParallelExecutor(n_workers=MAX_WORKERS),
        )
        _assert_bit_identical(h_serial, h_parallel)

    def test_fedavg_dropping_stragglers(self, synthetic_small):
        h_serial = _run(synthetic_small, mu=0.0, drop=True)
        h_parallel = _run(
            synthetic_small, mu=0.0, drop=True,
            executor=ParallelExecutor(n_workers=2),
        )
        _assert_bit_identical(h_serial, h_parallel)

    def test_per_client_eval_dispatched_to_workers(self, synthetic_small):
        """Worker-sharded per-client evaluation matches the serial loop."""
        h_serial = _run(synthetic_small, mu=0.5, drop=False, eval_mode="per_client")
        h_parallel = _run(
            synthetic_small, mu=0.5, drop=False, eval_mode="per_client",
            executor=ParallelExecutor(n_workers=2),
        )
        _assert_bit_identical(h_serial, h_parallel)

    @pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
    def test_worker_count_does_not_matter(self, synthetic_small):
        h1 = _run(
            synthetic_small, mu=0.5, drop=False,
            executor=ParallelExecutor(n_workers=2),
        )
        h_many = _run(
            synthetic_small, mu=0.5, drop=False,
            executor=ParallelExecutor(n_workers=MAX_WORKERS + 1),
        )
        _assert_bit_identical(h1, h_many)

    def test_explicit_serial_executor_matches_default(self, synthetic_small):
        h_default = _run(synthetic_small, mu=0.5, drop=False)
        h_explicit = _run(
            synthetic_small, mu=0.5, drop=False, executor=SerialExecutor()
        )
        _assert_bit_identical(h_default, h_explicit)


@pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
class TestUnevenWorkerShares:
    """K = 5 tasks never divide evenly over 2 or 3 workers, and power-law
    budgets make the shares unequal in work as well as in count."""

    SKEWED = dict(clients_per_round=5, systems=PowerLawStragglers(1.0, seed=3))

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_power_law_budgets(self, synthetic_small, n_workers):
        h_serial = _run(synthetic_small, mu=0.5, drop=False, **self.SKEWED)
        h_parallel = _run(
            synthetic_small, mu=0.5, drop=False,
            executor=ParallelExecutor(n_workers=n_workers), **self.SKEWED,
        )
        _assert_bit_identical(h_serial, h_parallel)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_chaos_retry_waves(self, synthetic_small, n_workers):
        from repro.faults import ChaosFaults, FaultPolicy

        def chaos(engine):
            model = MultinomialLogisticRegression(dim=60, num_classes=10)
            trainer = FederatedTrainer(
                dataset=synthetic_small, model=model,
                solver=SGDSolver(0.01, batch_size=10), mu=1.0, seed=1,
                faults=ChaosFaults(rate=0.5, seed=11),
                fault_policy=FaultPolicy(
                    on_crash="retry", max_retries=2, min_quorum=1
                ),
                engine=engine, **self.SKEWED,
            )
            with trainer:
                return trainer.run(ROUNDS), trainer.fault_stats

        (h_serial, serial_stats) = chaos(None)
        (h_parallel, parallel_stats) = chaos(ParallelExecutor(n_workers))
        assert serial_stats == parallel_stats
        assert serial_stats["retries"] > 0, "no retry wave was exercised"
        _assert_bit_identical(h_serial, h_parallel)


@pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
class TestLaneParity:
    """``parallel:N`` counts lanes, the server among them: at every N and
    under both start methods its history digest is serial's, for the solves
    and for a census cut into one share per lane."""

    @staticmethod
    def _digest(dataset, engine):
        trainer = FederatedTrainer(
            dataset=dataset,
            model=MultinomialLogisticRegression(dim=60, num_classes=10),
            solver=SGDSolver(0.01, batch_size=10), mu=0.5, seed=1,
            clients_per_round=5, systems=PowerLawStragglers(1.0, seed=3),
            engine=engine, evaluation=EvalConfig(mode="stacked"),
        )
        # Small blocks, so the census has units enough for three shares.
        trainer.executor.evaluator.block_size = 48
        with trainer:
            return history_digest(trainer.run(ROUNDS).records)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_digest_equals_serial(
        self, synthetic_small, monkeypatch, n_workers, start_method
    ):
        # Read on the server: every census is sharded, one share per lane.
        monkeypatch.setattr(parallel, "MIN_ELEMENTS_SAVED", 0)
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 64)
        executor = ParallelExecutor(n_workers, start_method=start_method)
        assert executor._census_shares == n_workers
        assert self._digest(synthetic_small, executor) == self._digest(
            synthetic_small, "serial"
        )
