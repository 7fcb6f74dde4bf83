"""Unit tests for the fault-injection layer (repro.faults).

Covers the fault models' determinism contract, the policy's derived
quantities (backoff schedule, quorum), the manager's round orchestration
(retry waves, quarantine thresholds, stale buffering, quorum guard), and
the trainer-level integration (events, manifest, record.degraded).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.faults import (
    FAULT_KINDS,
    NO_FAULTS,
    ChaosFaults,
    ComposeFaults,
    CorruptionFaults,
    CrashFaults,
    DropoutFaults,
    FaultDecision,
    FaultManager,
    FaultPolicy,
    FaultSchedule,
    NoFaults,
    StaleFaults,
    resolve_faults,
)
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver
from repro.runtime.executor import LocalTask
from repro.spec import build, describe
from repro.telemetry import InMemorySink, Telemetry


def _trainer(dataset, **kwargs):
    kwargs.setdefault("mu", 1.0)
    kwargs.setdefault("clients_per_round", 4)
    kwargs.setdefault("epochs", 2)
    kwargs.setdefault("seed", 1)
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    return FederatedTrainer(
        dataset, model, SGDSolver(0.05, batch_size=10), **kwargs
    )


class TestFaultModels:
    def test_draws_are_deterministic(self):
        a = ChaosFaults(rate=0.7, seed=9)
        b = ChaosFaults(rate=0.7, seed=9)
        for rnd in range(5):
            for cid in range(6):
                for attempt in (0, 1, 2):
                    assert a.draw(rnd, cid, attempt) == b.draw(rnd, cid, attempt)

    def test_different_attempts_draw_independently(self):
        sched = CrashFaults(rate=1.0, seed=3)
        d0 = sched.draw(0, 0, attempt=0)
        d1 = sched.draw(0, 0, attempt=1)
        assert d0.kind == d1.kind == "crash"
        assert d0.fraction != d1.fraction  # fresh sub-seed per attempt

    def test_rate_zero_never_faults(self):
        sched = ChaosFaults(rate=0.0, seed=1)
        assert all(
            sched.draw(r, c) is None for r in range(10) for c in range(10)
        )

    def test_rate_one_always_faults(self):
        sched = DropoutFaults(rate=1.0, seed=1)
        assert all(
            sched.draw(r, c).kind == "dropout"
            for r in range(5)
            for c in range(5)
        )

    def test_chaos_covers_all_kinds(self):
        sched = ChaosFaults(rate=1.0, seed=2)
        kinds = {sched.draw(r, c).kind for r in range(10) for c in range(10)}
        assert kinds == set(FAULT_KINDS)

    def test_stale_delay_range(self):
        sched = StaleFaults(rate=1.0, seed=4, max_delay=3)
        delays = {sched.draw(r, c).delay for r in range(8) for c in range(8)}
        assert delays <= {1, 2, 3} and len(delays) > 1

    def test_compose_first_match_wins(self):
        compose = ComposeFaults(
            [DropoutFaults(rate=1.0, seed=1), CrashFaults(rate=1.0, seed=2)]
        )
        assert compose.draw(0, 0).kind == "dropout"
        assert compose.enabled

    def test_no_faults_disabled_and_silent(self):
        assert not NO_FAULTS.enabled
        assert NO_FAULTS.draw(0, 0) is None
        assert not ComposeFaults([NoFaults()]).enabled

    def test_decision_validation(self):
        with pytest.raises(ValueError):
            FaultDecision(kind="melt")
        with pytest.raises(ValueError):
            FaultDecision(kind="crash", fraction=0.0)
        with pytest.raises(ValueError):
            FaultDecision(kind="stale", delay=0)

    def test_dict_round_trip(self):
        for sched in (
            NoFaults(),
            CrashFaults(0.4, seed=7, min_fraction=0.2, max_fraction=0.8),
            ChaosFaults(0.3, seed=1, kinds=("crash", "stale")),
            ComposeFaults([DropoutFaults(0.1, seed=2), StaleFaults(0.2, seed=3)]),
        ):
            spec = json.loads(json.dumps(describe(sched)))
            assert build(spec, "faults") == sched
        assert CrashFaults(0.4, seed=7) != CrashFaults(0.4, seed=8)
        assert CrashFaults(0.4) != DropoutFaults(0.4)

    @pytest.mark.parametrize("schedule", [ChaosFaults, CorruptionFaults])
    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_a_non_positive_corruption_scale_is_refused(self, schedule, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            schedule(0.1, scale=scale)

    def test_resolve_faults(self):
        assert resolve_faults(None) is NO_FAULTS
        sched = CrashFaults(0.5)
        assert resolve_faults(sched) is sched
        with pytest.raises(TypeError):
            resolve_faults("crash")


class TestFaultPolicy:
    def test_backoff_is_geometric(self):
        policy = FaultPolicy(
            on_crash="retry", max_retries=3, backoff_base=1.5, backoff_factor=2.0
        )
        assert [policy.backoff(a) for a in (1, 2, 3)] == [1.5, 3.0, 6.0]
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff(0)

    def test_quorum_semantics(self):
        assert FaultPolicy(min_quorum=0).quorum_for(10) == 0
        assert FaultPolicy(min_quorum=0.5).quorum_for(10) == 5
        assert FaultPolicy(min_quorum=0.55).quorum_for(10) == 6  # ceil
        assert FaultPolicy(min_quorum=0.01).quorum_for(10) == 1  # floor of 1
        assert FaultPolicy(min_quorum=3).quorum_for(10) == 3

    def test_default_accepts_partial_work(self):
        assert FaultPolicy().on_crash == "accept_partial"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(on_crash="panic")
        with pytest.raises(ValueError):
            FaultPolicy(after_retries="retry")
        with pytest.raises(ValueError):
            FaultPolicy(quarantine_threshold=0)

    @pytest.mark.parametrize("quorum", [1.5, 2.25, float("inf"), float("nan")])
    def test_a_quorum_count_must_be_integral(self, quorum):
        with pytest.raises(ValueError, match="min_quorum"):
            FaultPolicy(min_quorum=quorum)
        assert FaultPolicy(min_quorum=2.0).quorum_for(10) == 2

    def test_dict_round_trip(self):
        policy = FaultPolicy(on_crash="retry", max_retries=5, min_quorum=0.4)
        spec = describe(policy)
        assert spec["type"] == "FaultPolicy" and spec["min_quorum"] == 0.4
        assert build(spec, "fault_policy") == policy


class _FixedStale(FaultSchedule):
    """Delays each listed client by its own number of rounds."""

    def __init__(self, delays):
        self.delays = delays

    def draw(self, round_idx, client_id, attempt=0):
        delay = self.delays.get(client_id)
        return None if delay is None else FaultDecision("stale", delay=delay)


def _echo(tasks):
    return [
        SimpleNamespace(client_id=t.client_id, task=t, w=np.zeros(2)) for t in tasks
    ]


class TestStaleBuffer:
    def test_same_round_arrivals_deliver_in_the_order_they_were_held(self):
        manager = FaultManager(_FixedStale({0: 2, 1: 1, 2: 2, 3: 1}), FaultPolicy())
        delivered = []
        for round_idx, clients in enumerate([(2, 0, 1), (3,), ()]):
            tasks = [
                LocalTask(c, np.zeros(2), 0.0, 1.0, (0, round_idx, c, 0))
                for c in clients
            ]
            updates, _ = manager.execute_round(round_idx, tasks, _echo, len(clients))
            delivered.append([u.client_id for u in updates])
        # Round 2 releases clients 2 and 0 (held at round 0) and 3 (held at
        # round 1), each in the order it was held, not by client id.
        assert delivered == [[], [1], [2, 0, 3]]


class TestTrainerIntegration:
    def test_schedule_as_systems_is_refused(self, synthetic_small):
        """A fault schedule is not a systems model: passed as ``systems=``
        it would assign budgets and inject nothing, so the trainer says
        where it belongs instead."""
        with pytest.raises(TypeError, match="systems must be a SystemsModel.*faults="):
            _trainer(synthetic_small, systems=CrashFaults(1.0, seed=0))

    def test_crash_accept_partial_truncates_epochs(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=CrashFaults(rate=1.0, seed=2, min_fraction=0.5, max_fraction=0.5),
            fault_policy=FaultPolicy(),
        )
        try:
            record = trainer.run_round()
        finally:
            trainer.close()
        assert not record.dropped
        assert trainer.fault_stats["crashes"] == len(record.selected)

    def test_crash_drop_policy_discards_all(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=CrashFaults(rate=1.0, seed=2),
            fault_policy=FaultPolicy(on_crash="drop"),
        )
        try:
            w_before = trainer.w.copy()
            record = trainer.run_round()
        finally:
            trainer.close()
        assert sorted(record.dropped) == sorted(record.selected)
        assert trainer.fault_stats["crash_dropped"] == len(record.selected)
        # every update dropped -> aggregation kept the previous model
        np.testing.assert_array_equal(trainer.w, w_before)

    def test_retry_exhaustion_falls_back(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=CrashFaults(rate=1.0, seed=2),  # every attempt crashes
            fault_policy=FaultPolicy(
                on_crash="retry", max_retries=2, after_retries="accept_partial"
            ),
        )
        try:
            record = trainer.run_round()
        finally:
            trainer.close()
        stats = trainer.fault_stats
        assert stats["retries"] == 2 * len(record.selected)
        assert not record.dropped  # fallback accepted the partials

    def test_nan_quarantine_threshold(self, synthetic_small):
        threshold = 2
        trainer = _trainer(
            synthetic_small,
            faults=CorruptionFaults(rate=1.0, seed=2, mode="nan"),
            fault_policy=FaultPolicy(quarantine_threshold=threshold),
        )
        try:
            for _ in range(4):
                trainer.run_round()
            stats = trainer.fault_stats
            manager = trainer._fault_manager
            # NaN updates are never aggregated...
            assert np.all(np.isfinite(trainer.w))
            assert stats["quarantined_updates"] > 0
            # ...and repeat offenders get permanently excluded.
            assert stats["quarantined_clients"] > 0
            assert all(
                manager.suspicion[c] >= threshold
                for c in manager.quarantined_clients
            )
        finally:
            trainer.close()

    def test_quorum_guard_degrades_round(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=DropoutFaults(rate=1.0, seed=2),  # nobody ever reports
            fault_policy=FaultPolicy(min_quorum=1),
        )
        try:
            w_before = trainer.w.copy()
            record = trainer.run_round()
        finally:
            trainer.close()
        assert record.degraded
        assert trainer.fault_stats["quorum_misses"] == 1
        np.testing.assert_array_equal(trainer.w, w_before)

    def test_stale_updates_arrive_late(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=StaleFaults(rate=1.0, seed=2, max_delay=2),
        )
        try:
            trainer.run(4)
        finally:
            trainer.close()
        stats = trainer.fault_stats
        assert stats["stale_held"] > 0
        assert stats["stale_delivered"] > 0
        assert stats["stale_delivered"] <= stats["stale_held"]

    def test_fault_events_reach_telemetry(self, synthetic_small):
        sink = InMemorySink()
        policy = FaultPolicy(on_crash="retry", max_retries=1, min_quorum=3)
        trainer = _trainer(
            synthetic_small,
            faults=ChaosFaults(rate=0.8, seed=3),
            fault_policy=policy,
            telemetry=Telemetry([sink]),
        )
        try:
            history = trainer.run(4)
        finally:
            trainer.close()
        names = {
            e["name"] for e in sink.events if e.get("type") == "metric"
        }
        assert "fault:injected" in names
        assert "fault:retry" in names
        assert "fault:quarantine" in names
        # manifest records the fault configuration
        manifest = next(e for e in sink.events if e["type"] == "manifest")
        cohorting = manifest["trainer_config"]["cohorting"]
        assert cohorting["faults"]["type"] == "ChaosFaults"
        assert cohorting["fault_policy"]["on_crash"] == "retry"
        # The quorum guard never lets a round aggregate below threshold
        # silently: the rounds carrying a round:degraded event are exactly
        # the rounds whose record is degraded, each short of the quorum.
        degraded = [e for e in sink.events if e.get("name") == "round:degraded"]
        assert degraded
        assert {e["round"] for e in degraded} == {
            r.round_idx for r in history.records if r.degraded
        }
        assert all(e["survivors"] < policy.quorum_for(4) for e in degraded)
        assert trainer.fault_stats["quorum_misses"] == len(degraded)

    def test_default_trainer_has_no_fault_manager(self, synthetic_small):
        trainer = _trainer(synthetic_small)
        try:
            assert trainer._fault_manager is None
            assert trainer.faults is NO_FAULTS
            assert all(v == 0 for v in trainer.fault_stats.values())
        finally:
            trainer.close()
