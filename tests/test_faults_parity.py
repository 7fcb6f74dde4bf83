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

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.faults import ChaosFaults, CrashFaults, FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime.executor import task_round
from repro.systems.stragglers import FractionStragglers
from repro.telemetry import InMemorySink, Telemetry

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


# --------------------------------------------------------------------- #
# The pairing as an invariant: an update names the task it answers
# --------------------------------------------------------------------- #
ENGINES = [
    "serial",
    "cohort",
    pytest.param("parallel:2", marks=pytest.mark.slow),
    "async:window=0",
    "async:window=2,arrivals=seeded,latency=1.2,jitter=0.6",
]
CODECS = [None, "comms:codec=topk,k=60", "comms:codec=qsgd,bits=8,ef=true"]
FAULTS = {
    "healthy": {},
    "chaos": dict(faults=ChaosFaults(0.4, seed=11)),
    "chaos+retry": dict(
        faults=ChaosFaults(0.4, seed=11),
        fault_policy=FaultPolicy(on_crash="retry", max_retries=2),
    ),
}


@pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("codec", CODECS, ids=["dense", "topk", "qsgd+ef"])
@pytest.mark.parametrize("engine", ENGINES)
def test_every_update_names_its_task(synthetic_small, engine, codec, faults):
    """Whatever the engine delivers, in whichever round, comms, faults and
    aggregation read one pairing: ``update.task``."""
    sink = InMemorySink()
    trainer = FederatedTrainer(
        synthetic_small,
        MultinomialLogisticRegression(dim=60, num_classes=10),
        SGDSolver(0.01, batch_size=10),
        mu=1.0, clients_per_round=4, epochs=2, seed=1,
        systems=FractionStragglers(0.5, seed=3),
        engine=engine, comms=codec,
        telemetry=Telemetry([sink], run_id="pairing"),
        **FAULTS[faults],
    )
    barrier = not engine.startswith("async")
    dispatched = set()  # ids of every task handed to the engine so far
    delivered = {}  # round -> how many updates the engine delivered in it
    dispatch = trainer.executor.run_local_solves

    def checked_dispatch(tasks):
        round_idx, first_event = trainer._round, len(sink.events)
        dispatched.update(id(task) for task in tasks)
        updates = dispatch(tasks)
        if barrier:
            assert [id(u.task) for u in updates] == [id(t) for t in tasks]
        for update in updates:
            assert id(update.task) in dispatched
            assert update.task.client_id == update.client_id
            assert update.staleness == round_idx - task_round(update.task)
        if updates:
            delivered[round_idx] = delivered.get(round_idx, 0) + len(updates)
        for event in sink.events[first_event:]:
            if event.get("name", "").startswith(("comm:", "comms.")):
                assert event["round"] == round_idx, event
        return updates

    trainer.executor.run_local_solves = checked_dispatch
    aggregate = trainer.sampling.aggregate

    def convex_aggregate(updates, w_previous, **kwargs):
        if updates:
            ones = [(cid, np.ones(3)) for cid, _ in updates]
            np.testing.assert_allclose(
                aggregate(ones, np.zeros(3), **kwargs), 1.0, rtol=0, atol=1e-12
            )
        return aggregate(updates, w_previous, **kwargs)

    trainer.sampling.aggregate = convex_aggregate
    with trainer:
        history = trainer.run(6)
    assert all(np.isfinite(r.train_loss) for r in history.records)
    bytes_up = {}
    for event in sink.events:
        if event.get("name") == "comms.bytes_up":
            bytes_up[event["round"]] = bytes_up.get(event["round"], 0) + event["value"]
    if codec is None:
        assert not bytes_up
    else:
        # Both codecs' wire size is a function of the model size alone.
        wire = trainer._comms_manager.codec.wire_nbytes(trainer.model.n_params)
        assert bytes_up == {r: n * wire for r, n in delivered.items()}
