"""The round scheduler every engine runs.

``serial``, ``cohort`` and ``parallel`` are the scheduler at window 0 with
synchronized arrivals; ``async`` sets its fields.  These tests hold what
that one loop promises on every backend: a bound executor starts from an
empty schedule, the downlink is booked once (at admission), the
scheduler's own events appear only under a clock that is not
synchronized, and a stacked solve states its steps like any other.
"""

from __future__ import annotations

import pytest

from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults.models import ChaosFaults
from repro.faults.policy import FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import ASYNC_GRAMMAR, make_executor, parallel
from repro.systems import FractionStragglers
from repro.telemetry import InMemorySink, Telemetry, history_digest
from tests.conftest import InProcessWorkers

STALE = "async:window=2,arrivals=seeded,latency=1.2,jitter=0.6"

#: The scheduler's events that would only restate 0 under a synchronized clock.
CLOCK_EVENTS = {"async:deliver", "async:checkin", "async.queue_depth", "async.staleness"}


@pytest.fixture(scope="module")
def federation():
    return make_synthetic(1.0, 1.0, num_devices=12, seed=3, size_cap=60)


def _trainer(dataset, engine, **kwargs):
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    options = dict(clients_per_round=4, mu=0.5, epochs=2, seed=11)
    options.update(kwargs)
    return FederatedTrainer(
        dataset, model, SGDSolver(0.05, batch_size=8), engine=engine, **options
    )


def _run(dataset, engine, rounds, **kwargs):
    """``(history, sink)`` of a telemetry-on run."""
    sink = InMemorySink()
    with _trainer(dataset, engine, telemetry=Telemetry([sink]), **kwargs) as trainer:
        history = trainer.run(rounds)
    return history, sink


@pytest.mark.parametrize("spec", ["serial", "cohort", "parallel:2"])
def test_a_barrier_engine_is_the_scheduler_at_the_async_defaults(spec):
    """What the manifest's ``engine`` section states for a barrier spec."""
    executor = make_executor(spec)
    for _, name, _, default in ASYNC_GRAMMAR.keys:
        assert getattr(executor, name) == default, name


class TestBindStartsAFreshSchedule:
    @pytest.mark.parametrize("spec", ["serial", "cohort", STALE])
    def test_a_reused_executor_runs_like_a_fresh_one(self, federation, spec):
        reused = make_executor(spec)
        with _trainer(federation, reused) as first:
            first.run(12)
        if spec == STALE:
            assert reused.queue_depth > 0, "the first run left nothing in flight"
        # Long enough for what the first run left in flight to come due.
        with _trainer(federation, reused) as again:
            digest = history_digest(again.run(15).records)
        with _trainer(federation, spec) as fresh:
            assert digest == history_digest(fresh.run(15).records)


class TestEventsOnlyUnderAClock:
    @pytest.mark.parametrize(
        "spec", ["serial", "cohort", "async", "async:window=2"]
    )
    def test_a_synchronized_clock_writes_no_async_event(self, federation, spec):
        _, sink = _run(federation, spec, rounds=4)
        names = {event.get("name", "") for event in sink.events}
        assert not {name for name in names if name.startswith("async")}

    def test_a_seeded_clock_writes_all_four(self, federation):
        _, sink = _run(federation, "async:window=2,arrivals=seeded", rounds=4)
        names = {event.get("name") for event in sink.events}
        assert CLOCK_EVENTS <= names


@pytest.mark.filterwarnings("ignore:ParallelExecutor:RuntimeWarning")
class TestOneDownlinkBooking:
    @pytest.mark.parametrize("chaos", [False, True], ids=["healthy", "retry-waves"])
    def test_bytes_down_equal_on_every_engine(self, federation, chaos, monkeypatch):
        faults = dict(
            faults=ChaosFaults(0.4, seed=5, kinds=("crash",)),
            fault_policy=FaultPolicy(on_crash="retry", max_retries=2),
        ) if chaos else {}
        booked = {}
        for spec in ("serial", "cohort", "parallel:2", "async"):
            sink = InMemorySink()
            with _trainer(
                federation, spec, comms="comms:codec=qsgd,bits=8",
                telemetry=Telemetry([sink]), **faults,
            ) as trainer:
                executor = trainer.executor
                if spec.startswith("parallel"):
                    # The workers, run here: every message still crosses a
                    # pickle boundary, no process starts.
                    monkeypatch.setattr(parallel, "_WORKER", {})
                    parallel._init_worker(
                        federation, executor._replica, trainer.solver,
                        executor.eval_mode,
                    )
                    InProcessWorkers.install(executor)
                admitted = []
                dispatch = executor.run_local_solves

                def counted(tasks, dispatch=dispatch):
                    admitted.append(len(tasks))
                    return dispatch(tasks)

                executor.run_local_solves = counted
                trainer.run(5)
                down = trainer.comms_stats["bytes_down"]
                if chaos:
                    assert trainer.fault_stats["retries"] > 0
            # One dense model per admitted task, each booked by one event.
            assert down == sum(admitted) * 8 * trainer.model.n_params
            assert down == sum(e["value"] for e in sink.metrics("comms.bytes_down"))
            booked[spec] = down
        assert len(set(booked.values())) == 1, booked


class TestCohortStatesItsSolves:
    def test_one_record_per_update_with_the_serial_steps(self, federation):
        stragglers = dict(systems=FractionStragglers(0.5, seed=5))
        _, serial_sink = _run(federation, "serial", rounds=3, **stragglers)
        cohort, sink = _run(federation, "cohort", rounds=3, **stragglers)

        def steps(sink):
            return [
                (s["round"], s["client_id"], s["epochs"], s["steps"])
                for s in sink.spans("solve:client")
            ]

        # The serial run states one solve per delivered update.
        assert steps(sink) == steps(serial_sink)
        for record in cohort.records:
            delivered = [
                s for s in sink.spans("solve:client") if s["round"] == record.round_idx
            ]
            # The kernel's seconds, apportioned by steps.
            (kernel,) = [
                s for s in sink.spans("cohort:kernel") if s["round"] == record.round_idx
            ]
            assert sum(s["duration"] for s in delivered) == pytest.approx(
                kernel["duration"], rel=1e-9
            )
            shares = {s["duration"] / s["steps"] for s in delivered if s["steps"]}
            assert max(shares) == pytest.approx(min(shares), rel=1e-9)
