"""Executor parity and determinism for the fault-injection layer.

The determinism contract (DESIGN.md §10.4): every fault draw is a pure
function of ``(seed, round, client, attempt)``, so the *fault environment*
— who is struck, by what, on which attempt — and every policy decision are
exactly identical across executors and reruns.  Serial vs parallel (and
rerun vs rerun) histories are additionally bit-identical; the cohort
executor's stacked kernels match at the suite's usual ``1e-12`` tolerance.
With faults disabled the trainer is bit-identical to one that predates the
fault subsystem.

Mirrors ``tests/test_runtime_determinism.py``; the parallel-executor legs
are marked slow (process pool startup dominates), the serial/cohort legs
run in the default suite.
"""

import pytest

from repro.core import FederatedTrainer
from repro.faults import ChaosFaults, CrashFaults, FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.systems.stragglers import FractionStragglers

ROUNDS = 4

#: A fault environment exercising every code path: all fault kinds, retry
#: waves, quarantine bookkeeping, stale buffering, and the quorum guard.
CHAOS = dict(
    faults=ChaosFaults(rate=0.5, seed=11),
    fault_policy=FaultPolicy(
        on_crash="retry", max_retries=1, quarantine_threshold=2, min_quorum=1
    ),
)


def _run(dataset, *, executor=None, seed=1, **fault_kwargs):
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    solver = SGDSolver(0.01, batch_size=10)
    trainer = FederatedTrainer(
        dataset,
        model,
        solver,
        mu=1.0,
        clients_per_round=4,
        epochs=2,
        systems=FractionStragglers(0.5, seed=3),
        seed=seed,
        engine=executor,
        **fault_kwargs,
    )
    try:
        history = trainer.run(ROUNDS)
        stats = trainer.fault_stats
    finally:
        trainer.close()
    return history, stats


def _assert_bit_identical(a, b, tol=0.0):
    """Exact equality on every fault decision; float metrics within ``tol``.

    ``tol=0.0`` (serial vs parallel vs rerun) demands bit-identity; the
    cohort executor's stacked kernels are compared at the same ``1e-12``
    tolerance the cohort equivalence suite uses (fault decisions — who was
    struck, retried, dropped, quarantined — stay exactly equal either way).
    """
    history_a, stats_a = a
    history_b, stats_b = b
    assert stats_a == stats_b
    assert len(history_a.records) == len(history_b.records) == ROUNDS
    for ra, rb in zip(history_a.records, history_b.records):
        assert abs(ra.train_loss - rb.train_loss) <= tol
        assert abs(ra.test_accuracy - rb.test_accuracy) <= tol
        assert ra.selected == rb.selected
        assert ra.stragglers == rb.stragglers
        assert ra.dropped == rb.dropped
        assert ra.degraded == rb.degraded


#: Stacked-kernel tolerance (matches tests/test_runtime_cohort.py).
COHORT_TOL = 1e-12


class TestSeededFaultParity:
    def test_serial_equals_cohort(self, synthetic_small):
        _assert_bit_identical(
            _run(synthetic_small, executor="serial", **CHAOS),
            _run(synthetic_small, executor="cohort", **CHAOS),
            tol=COHORT_TOL,
        )

    @pytest.mark.slow
    def test_serial_equals_parallel(self, synthetic_small):
        _assert_bit_identical(
            _run(synthetic_small, executor="serial", **CHAOS),
            _run(synthetic_small, executor="parallel:2", **CHAOS),
        )

    def test_rerun_reproduces_exactly(self, synthetic_small):
        _assert_bit_identical(
            _run(synthetic_small, **CHAOS), _run(synthetic_small, **CHAOS)
        )

    def test_retry_parity_under_pure_crashes(self, synthetic_small):
        kwargs = dict(
            faults=CrashFaults(rate=0.8, seed=5),
            fault_policy=FaultPolicy(on_crash="retry", max_retries=2),
        )
        _assert_bit_identical(
            _run(synthetic_small, executor="serial", **kwargs),
            _run(synthetic_small, executor="cohort", **kwargs),
            tol=COHORT_TOL,
        )


class TestNoFaultsBitIdentical:
    """faults=None and faults-disabled must match the default trainer exactly.

    This is the API-redesign guarantee: threading the fault layer through
    the trainer must not perturb entropy consumption or task construction
    when faults are off (the seed-entropy tuples are unchanged, so every
    batch order and straggler draw is too).
    """

    def test_none_matches_default(self, synthetic_small):
        _assert_bit_identical(
            _run(synthetic_small),
            _run(synthetic_small, faults=None),
        )

    def test_zero_rate_schedule_matches_default_history(self, synthetic_small):
        # A rate-0 schedule is *enabled* (the manager runs) but never
        # injects — histories must still match the default path exactly.
        default_history, _ = _run(synthetic_small)
        managed_history, managed_stats = _run(
            synthetic_small, faults=CrashFaults(rate=0.0, seed=1)
        )
        assert all(v == 0 for v in managed_stats.values())
        _assert_bit_identical(
            (default_history, {}), (managed_history, {})
        )

    def test_disabled_faults_on_cohort_executor(self, synthetic_small):
        _assert_bit_identical(
            _run(synthetic_small, executor="serial"),
            _run(synthetic_small, executor="cohort", faults=None),
            tol=COHORT_TOL,
        )
