"""Async engine tests: parity oracle, staleness semantics, config API.

The bounded-staleness engine's correctness anchor is its degenerate mode:
``window=0`` with synchronized arrivals must reproduce the serial engine
bit-for-bit (including under systems heterogeneity and fault retry waves).
The stale modes are then tested for their own invariants — discount
weighting consistent with the sampling schemes, backpressure bookkeeping,
quorum behavior under mass churn, and bit-identical ledger replay.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.config import EngineConfig, EvalConfig, TrainerConfig
from repro.core.sampling import (
    UniformSamplingWeightedAverage,
    WeightedSamplingSimpleAverage,
)
from repro.core.server import FederatedTrainer
from repro.datasets import make_synthetic
from repro.faults.manager import RETRY_SALT, FaultManager
from repro.faults.models import ChaosFaults, DropoutFaults, FaultDecision, FaultSchedule
from repro.faults.policy import FaultPolicy
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime import AsyncExecutor, make_executor, parse_executor_spec
from repro.runtime.executor import LocalTask
from repro.systems.clock import (
    Clock,
    DeviceTiming,
    SeededLatencyClock,
    SynchronizedClock,
)
from repro.systems.stragglers import FractionStragglers
from repro.telemetry import InMemorySink, JSONLSink, Telemetry
from repro.telemetry.events import summarize
from repro.telemetry.replay import replay_run


def make_trainer(dataset, seed=9, **kwargs):
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    solver = SGDSolver(learning_rate=0.05, batch_size=8)
    options = dict(clients_per_round=4, mu=0.1, epochs=2, seed=seed)
    options.update(kwargs)
    return FederatedTrainer(dataset, model, solver, **options)


@pytest.fixture
def dataset():
    return make_synthetic(0.5, 0.5, num_devices=10, seed=2, size_cap=100)


def assert_identical_histories(h_a, h_b, w_a, w_b):
    """Histories and final models must match bit-for-bit."""
    assert len(h_a.records) == len(h_b.records)
    for ra, rb in zip(h_a.records, h_b.records):
        assert ra.train_loss == rb.train_loss
        assert ra.test_accuracy == rb.test_accuracy
        assert ra.selected == rb.selected
        assert ra.stragglers == rb.stragglers
        assert ra.dropped == rb.dropped
    assert np.array_equal(w_a, w_b)


class FixedLatencyClock(Clock):
    """Test clock: one fixed round-trip duration per device id."""

    def __init__(self, durations):
        self.durations = dict(durations)

    def timing(self, round_idx, device_id, epochs):
        total = self.durations.get(device_id, 0.0)
        return DeviceTiming(0.0, total, 0.0)


def toy_task(executor, cid, round_idx=0):
    return LocalTask(
        client_id=cid,
        w_global=executor.model.get_params(),
        mu=0.1,
        epochs=1,
        rng_entropy=(0, round_idx, cid, 0),
    )


def bound_async(dataset, **kwargs):
    executor = AsyncExecutor(**kwargs)
    model = MultinomialLogisticRegression(
        dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
    )
    executor.bind(dataset, model, SGDSolver(0.05, batch_size=8))
    return executor


# --------------------------------------------------------------------- #
# Parity oracle
# --------------------------------------------------------------------- #
class TestWindowZeroSerialParity:
    def test_plain_run(self, dataset):
        serial = make_trainer(dataset)
        h_serial = serial.run(4)
        via_async = make_trainer(dataset, engine="async")
        h_async = via_async.run(4)
        assert via_async.executor_mode == "async"
        assert_identical_histories(h_serial, h_async, serial.w, via_async.w)

    def test_under_systems_heterogeneity(self, dataset):
        systems = FractionStragglers(0.5, seed=3)
        serial = make_trainer(dataset, systems=systems)
        h_serial = serial.run(4)
        via_async = make_trainer(
            dataset,
            systems=FractionStragglers(0.5, seed=3),
            engine=EngineConfig(mode="async"),
        )
        h_async = via_async.run(4)
        assert_identical_histories(h_serial, h_async, serial.w, via_async.w)

    def test_under_chaos_faults_with_retry_waves(self, dataset):
        policy = FaultPolicy(on_crash="retry", max_retries=2)
        serial = make_trainer(
            dataset, faults=ChaosFaults(0.3, seed=11), fault_policy=policy
        )
        h_serial = serial.run(5)
        via_async = make_trainer(
            dataset,
            faults=ChaosFaults(0.3, seed=11),
            fault_policy=FaultPolicy(on_crash="retry", max_retries=2),
            engine="async",
        )
        h_async = via_async.run(5)
        assert_identical_histories(h_serial, h_async, serial.w, via_async.w)

    def test_async_runs_are_deterministic_even_when_stale(self, dataset):
        spec = "async:window=3,arrivals=seeded,latency=1.4,jitter=0.8"
        runs = []
        for _ in range(2):
            trainer = make_trainer(dataset, engine=spec)
            history = trainer.run(5)
            runs.append((history, trainer.w))
        assert_identical_histories(
            runs[0][0], runs[1][0], runs[0][1], runs[1][1]
        )


# --------------------------------------------------------------------- #
# Staleness mechanics
# --------------------------------------------------------------------- #
class TestStalenessMechanics:
    def test_discount_families(self):
        poly = AsyncExecutor(window=4, discount="poly", discount_power=2.0)
        assert poly.discount_weight(0) == 1.0
        assert poly.discount_weight(1) == pytest.approx(0.25)
        assert poly.discount_weight(3) == pytest.approx(1 / 16)
        const = AsyncExecutor(
            window=4, discount="const", discount_factor=0.3
        )
        assert const.discount_weight(0) == 1.0
        assert const.discount_weight(2) == pytest.approx(0.3)

    def test_delayed_checkins_deliver_with_discounts(self, dataset):
        executor = bound_async(dataset, window=3)
        executor.clock = FixedLatencyClock({0: 0.0, 1: 1.5, 2: 2.5})
        executor.begin_round(0)
        first = executor.run_local_solves(
            [toy_task(executor, 0), toy_task(executor, 1), toy_task(executor, 2)]
        )
        assert [u.client_id for u in first] == [0]
        assert first[0].staleness == 0 and first[0].discount == 1.0
        assert executor.queue_depth == 2

        executor.begin_round(1)
        second = executor.run_local_solves([])
        assert [u.client_id for u in second] == [1]
        assert second[0].staleness == 1
        assert second[0].discount == pytest.approx(0.5)  # poly, power 1

        executor.begin_round(2)
        third = executor.run_local_solves([])
        assert [u.client_id for u in third] == [2]
        assert third[0].staleness == 2
        assert third[0].discount == pytest.approx(1 / 3)
        assert executor.queue_depth == 0

    def test_window_prunes_undeliverable_checkins(self, dataset):
        executor = bound_async(dataset, window=0)
        executor.clock = FixedLatencyClock({0: 0.0, 1: 5.0})
        executor.begin_round(0)
        delivered = executor.run_local_solves([toy_task(executor, 0), toy_task(executor, 1)])
        # Client 1's check-in cannot arrive inside the window: discarded.
        assert [u.client_id for u in delivered] == [0]
        assert executor.queue_depth == 0
        executor.begin_round(1)
        assert executor.run_local_solves([]) == []

    def test_capacity_bounds_inflight_queue(self, dataset):
        executor = bound_async(dataset, window=10, capacity=2)
        executor.clock = FixedLatencyClock({c: 3.0 for c in range(5)})
        executor.begin_round(0)
        delivered = executor.run_local_solves([toy_task(executor, c) for c in range(5)])
        assert delivered == []
        assert executor.queue_depth == 2  # admissions beyond capacity rejected

    def test_arrival_order_breaks_submission_ties(self, dataset):
        executor = bound_async(dataset, window=2)
        executor.clock = FixedLatencyClock({0: 0.9, 1: 0.2, 2: 0.5})
        executor.begin_round(0)
        delivered = executor.run_local_solves(
            [toy_task(executor, 0), toy_task(executor, 1), toy_task(executor, 2)]
        )
        assert [u.client_id for u in delivered] == [1, 2, 0]


# --------------------------------------------------------------------- #
# A late delivery answers its own task
# --------------------------------------------------------------------- #
class ScriptedCrashes(FaultSchedule):
    """Crashes exactly the listed ``(round, client, attempt)`` draws."""

    def __init__(self, crashes):
        self.crashes = set(crashes)

    def draw(self, round_idx, client_id, attempt=0):
        if (round_idx, client_id, attempt) in self.crashes:
            return FaultDecision("crash", fraction=0.5)
        return None


class TestLateDeliveriesAnswerTheirOwnTask:
    def test_a_late_crash_is_retried_as_the_task_that_crashed(self, dataset):
        class SlowOnce(Clock):
            """Client 1's round-0 check-in lands in round 1; everything
            else, its retry included, is instant."""

            def timing(self, round_idx, device_id, epochs):
                slow = (round_idx, device_id) == (0, 1)
                return DeviceTiming(0.0, 1.5 if slow else 0.0, 0.0)

        executor = bound_async(dataset, window=3)
        executor.clock = SlowOnce()
        sink = InMemorySink()
        manager = FaultManager(
            ScriptedCrashes({(0, 1, 0)}), FaultPolicy(on_crash="retry"),
            telemetry=Telemetry([sink]),
        )
        waves = []

        def decided(name):
            return [(e["round"], e["client_id"]) for e in sink.metrics(name)]

        def dispatch(tasks):
            waves.append(list(tasks))
            return executor.run_local_solves(tasks)

        w0 = executor.model.get_params()
        w1 = w0 + 0.01
        executor.begin_round(0)
        first = [
            LocalTask(client_id=c, w_global=w0, mu=0.1, epochs=2.0,
                      rng_entropy=(7, 0, c, 0))
            for c in (0, 1)
        ]
        updates, _ = manager.execute_round(0, first, dispatch, num_selected=2)
        assert [u.client_id for u in updates] == [0] and not decided("fault:crash")
        crashed_task = waves[0][1]
        assert crashed_task.fault.kind == "crash"

        executor.begin_round(1)
        second = [LocalTask(client_id=2, w_global=w1, mu=0.3, epochs=1.0,
                            rng_entropy=(7, 1, 2, 0))]
        updates, _ = manager.execute_round(1, second, dispatch, num_selected=1)
        assert decided("fault:crash") == decided("fault:retry") == [(1, 1)]
        assert [e["attempt"] for e in sink.metrics("fault:retry")] == [1]
        (retry,) = waves[2]
        assert retry.w_global is w0
        assert (retry.mu, retry.epochs) == (crashed_task.mu, crashed_task.epochs)
        assert retry.rng_entropy == (7, 0, 1, 0, RETRY_SALT, 1)
        assert retry.fault is None
        # The healthy retry replaced the partial iterate, in its slot, and
        # is as stale as the model it started from.
        assert {u.client_id: u.staleness for u in updates} == {1: 1, 2: 0}
        assert [u.task for u in updates if u.client_id == 1] == [retry]

    def test_comm_events_and_drift_follow_the_delivering_round_and_the_submit_model(
        self, dataset
    ):
        sink = InMemorySink()
        trainer = make_trainer(
            dataset,
            engine="async:window=2,arrivals=seeded,latency=1.2,jitter=0.6",
            comms="comms:codec=qsgd,bits=8,ef=true",
            telemetry=Telemetry([sink], run_id="late"),
        )
        models, drifts = {}, {}
        dispatch = trainer.executor.run_local_solves

        def recording_dispatch(tasks):
            round_idx = trainer._round
            models[round_idx] = trainer.w
            updates = dispatch(tasks)
            drifts[round_idx] = [
                float(np.linalg.norm(u.w - models[round_idx - u.staleness]))
                for u in updates
            ]
            return updates

        trainer.executor.run_local_solves = recording_dispatch
        with trainer:
            trainer.run(8)
        staleness = [e for e in sink.events if e.get("name") == "async.staleness"]
        assert max(e["max"] for e in staleness) > 0, "nothing was delivered late"

        enclosing, payloads, bytes_up = None, {}, {}
        for event in sink.events:
            name = event.get("name", "")
            if name == "phase:select":
                enclosing = event["round"]
            elif name.startswith(("comm:", "comms.")):
                assert event["round"] == enclosing, event
                if name == "comms.bytes_up":
                    bytes_up[enclosing] = event["value"]
            elif name == "solve:client":
                payloads.setdefault(event["round"], []).append(event["payload_bytes"])
            elif name == "fedprox.client_drift":
                want = summarize(drifts[event["round"]])
                for stat in ("count", "min", "max", "mean"):
                    assert event[stat] == pytest.approx(want[stat], rel=0, abs=1e-12)
        assert bytes_up == {r: sum(sizes) for r, sizes in payloads.items()}


# --------------------------------------------------------------------- #
# Discount-aware aggregation
# --------------------------------------------------------------------- #
class TestDiscountAggregation:
    def test_uniform_weighted_average_folds_discounts(self, dataset):
        scheme = UniformSamplingWeightedAverage(dataset, 4, seed=0)
        rng = np.random.default_rng(0)
        updates = [(cid, rng.normal(size=6)) for cid in (0, 2, 5)]
        discounts = [1.0, 0.5, 0.25]
        sizes = np.array(
            [dataset.train_sizes[cid] for cid, _ in updates], dtype=float
        )
        weights = sizes * np.array(discounts)
        weights /= weights.sum()
        expected = weights @ np.stack([w for _, w in updates])
        result = scheme.aggregate(updates, np.zeros(6), discounts=discounts)
        assert np.allclose(result, expected)
        assert weights.sum() == pytest.approx(1.0)

    def test_simple_average_folds_discounts(self, dataset):
        scheme = WeightedSamplingSimpleAverage(dataset, 4, seed=0)
        rng = np.random.default_rng(1)
        updates = [(cid, rng.normal(size=6)) for cid in (1, 3)]
        result = scheme.aggregate(updates, np.zeros(6), discounts=[1.0, 0.5])
        expected = (2 / 3) * updates[0][1] + (1 / 3) * updates[1][1]
        assert np.allclose(result, expected)

    def test_no_discounts_is_bitwise_historical(self, dataset):
        scheme = UniformSamplingWeightedAverage(dataset, 4, seed=0)
        rng = np.random.default_rng(2)
        updates = [(cid, rng.normal(size=6)) for cid in (0, 1)]
        plain = scheme.aggregate(updates, np.zeros(6))
        unit = scheme.aggregate(updates, np.zeros(6), discounts=[1.0, 1.0])
        assert np.allclose(plain, unit)


# --------------------------------------------------------------------- #
# Quorum under churn
# --------------------------------------------------------------------- #
class TestQuorumUnderMassChurn:
    def test_degraded_rounds_keep_model_and_engine_consistent(self, dataset):
        trainer = make_trainer(
            dataset,
            faults=DropoutFaults(0.9, seed=5),
            fault_policy=FaultPolicy(min_quorum=0.75),
            engine="async:window=2,arrivals=seeded,latency=1.2,seed=3",
        )
        w0 = trainer.w.copy()
        history = trainer.run(5)
        degraded = [r for r in history.records if r.degraded]
        assert degraded, "90% dropout against a 75% quorum must degrade rounds"
        # Degraded rounds froze the model; the run still completes and
        # evaluates, and any non-degraded round moved the model.
        assert len(history.records) == 5
        assert all(np.isfinite(r.train_loss) for r in history.records
                   if r.train_loss is not None)
        if all(r.degraded for r in history.records):
            assert np.array_equal(trainer.w, w0)

    def test_total_churn_keeps_queue_draining(self, dataset):
        trainer = make_trainer(
            dataset,
            faults=DropoutFaults(1.0, seed=5),
            fault_policy=FaultPolicy(min_quorum=1),
            engine="async:window=1,arrivals=seeded,latency=2.0,seed=3",
        )
        history = trainer.run(3)
        assert all(r.degraded for r in history.records)
        assert np.array_equal(trainer.w, trainer.model.get_params())


# --------------------------------------------------------------------- #
# Ledger replay
# --------------------------------------------------------------------- #
class TestAsyncReplay:
    def test_async_chaos_run_replays_bit_identically(self, tmp_path):
        path = tmp_path / "async_chaos.jsonl"
        dataset = make_synthetic(0.5, 0.5, num_devices=10, seed=2, size_cap=100)
        telemetry = Telemetry([JSONLSink(str(path))], run_id="async-chaos")
        trainer = make_trainer(
            dataset,
            telemetry=telemetry,
            faults=ChaosFaults(0.3, seed=11),
            fault_policy=FaultPolicy(on_crash="retry", max_retries=1),
            engine="async:window=2,arrivals=seeded,latency=1.3,jitter=0.7",
        )
        trainer.run(4)
        trainer.close()
        report = replay_run(str(path))
        assert report.matches, report.describe()
        assert report.executor == "async"

    def test_manifest_carries_full_async_engine(self, tmp_path):
        path = tmp_path / "async_plain.jsonl"
        dataset = make_synthetic(0.5, 0.5, num_devices=8, seed=4, size_cap=80)
        telemetry = Telemetry([JSONLSink(str(path))], run_id="async-manifest")
        trainer = make_trainer(
            dataset,
            telemetry=telemetry,
            engine="async:window=1,discount=const,factor=0.4",
        )
        trainer.run(2)
        trainer.close()
        from repro.telemetry.ledger import load_run

        manifest = load_run(str(path)).manifest
        engine = manifest["trainer_config"]["engine"]
        assert engine["mode"] == "async"
        assert engine["window"] == 1
        assert engine["discount"] == "const"
        assert engine["discount_factor"] == 0.4


# --------------------------------------------------------------------- #
# Config API
# --------------------------------------------------------------------- #
class TestEngineConfig:
    def test_async_spec_round_trip(self):
        spec = "async:window=2,discount=const,factor=0.25,arrivals=seeded"
        config = EngineConfig.from_spec(spec)
        assert config.mode == "async"
        assert config.window == 2
        assert config.discount == "const"
        assert config.discount_factor == 0.25
        assert config.arrivals == "seeded"
        assert config.spec() == spec
        assert EngineConfig.from_spec(config.spec()) == config

    def test_default_async_spec_is_bare(self):
        assert EngineConfig(mode="async").spec() == "async"
        assert EngineConfig().spec() == "serial"
        assert EngineConfig(mode="parallel", workers=3).spec() == "parallel:3"

    def test_resolve_wraps_prebuilt_executor(self):
        executor = make_executor("async:window=4,seed=7")
        config = EngineConfig.resolve(executor)
        assert config.window == 4
        assert config.clock_seed == 7
        assert config.instance is executor
        assert config.build() is executor

    def test_trainer_config_round_trips_async_spec(self):
        config = TrainerConfig.from_kwargs(
            mu=0.5,
            engine="async:window=2,discount=poly,power=1.5",
        )
        assert config.engine.mode == "async"
        assert config.engine.discount_power == 1.5
        rebuilt = TrainerConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert (
            config.trainer_kwargs()["engine"].spec()
            == "async:window=2,power=1.5"  # poly is the default discount
        )

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("banana", "valid modes"),
            ("async:window", "key=value"),
            ("async:widnow=2", "valid keys"),
            ("async:window=two", "bad value"),
            ("async:window=1,window=2", "duplicate"),
            ("serial:2", "example specs"),
        ],
    )
    def test_labeled_spec_errors(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_executor_spec(spec)

    def test_unknown_arrivals_is_labeled(self):
        with pytest.raises(ValueError, match="arrival model"):
            AsyncExecutor(arrivals="banana")
        with pytest.raises(ValueError, match="staleness discount"):
            AsyncExecutor(discount="banana")

    def test_systems_arrivals_require_clock_driven_model(self, dataset):
        with pytest.raises(ValueError, match="ClockDrivenSystems"):
            make_trainer(dataset, engine="async:arrivals=systems")


class TestEvalConfigAndDeprecations:
    def test_eval_config_groups_evaluation_knobs(self, dataset):
        trainer = make_trainer(
            dataset,
            evaluation=EvalConfig(every=2, strategy="sampled", sample_size=5),
        )
        assert trainer.eval_config.every == 2
        assert trainer.eval_config.strategy == "sampled"
        assert trainer.sampled_evaluator.sample_size == 5

    def test_eval_config_validates(self):
        with pytest.raises(ValueError, match="strategy"):
            EvalConfig(strategy="banana")
        with pytest.raises(ValueError, match="train_every"):
            EvalConfig(train_every=0)
        for every in (0, -1):
            with pytest.raises(ValueError, match="eval every"):
                EvalConfig(every=every)

    def test_from_config_path_is_warning_free(self, dataset):
        config = TrainerConfig.from_kwargs(mu=0.1, clients_per_round=4)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trainer = FederatedTrainer.from_config(
                dataset, model, SGDSolver(0.05, batch_size=8), config
            )
        assert trainer.mu == 0.1
