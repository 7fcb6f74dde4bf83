"""Unit tests for the fault-injection layer (repro.faults).

Covers the fault models' determinism contract, the policy's derived
quantities (backoff schedule, quorum), the manager's round orchestration
(retry waves, quarantine thresholds, stale buffering, quorum guard), and
the trainer-level integration (events, manifest, record.degraded).
"""

from __future__ import annotations

import inspect
import json

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer, TrainerConfig
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
from repro.spec import ReplayError, build, describe
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

    def test_schedules_are_systems_models(self):
        assignments = CrashFaults(0.5, seed=1).assign(0, [3, 5], 20.0)
        assert [a.client_id for a in assignments] == [3, 5]
        assert all(a.epochs == 20.0 and not a.is_straggler for a in assignments)

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

    def test_resolve_faults(self):
        assert resolve_faults(None) is NO_FAULTS
        sched = CrashFaults(0.5)
        assert resolve_faults(sched) is sched
        with pytest.raises(TypeError):
            resolve_faults("crash")


class TestFaultPolicy:
    def test_backoff_sequence_is_geometric(self):
        policy = FaultPolicy(
            on_crash="retry", max_retries=3, backoff_base=1.5, backoff_factor=2.0
        )
        assert policy.backoff_sequence() == [1.5, 3.0, 6.0]

    def test_quorum_semantics(self):
        assert FaultPolicy(min_quorum=0).quorum_for(10) == 0
        assert FaultPolicy(min_quorum=0.5).quorum_for(10) == 5
        assert FaultPolicy(min_quorum=0.55).quorum_for(10) == 6  # ceil
        assert FaultPolicy(min_quorum=0.01).quorum_for(10) == 1  # floor of 1
        assert FaultPolicy(min_quorum=3).quorum_for(10) == 3

    def test_presets(self):
        assert FaultPolicy.fedprox().on_crash == "accept_partial"
        assert FaultPolicy.fedavg().on_crash == "drop"
        assert FaultPolicy.fedavg(min_quorum=2).min_quorum == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(on_crash="panic")
        with pytest.raises(ValueError):
            FaultPolicy(after_retries="retry")
        with pytest.raises(ValueError):
            FaultPolicy(quarantine_threshold=0)

    def test_dict_round_trip(self):
        policy = FaultPolicy(on_crash="retry", max_retries=5, min_quorum=0.4)
        spec = describe(policy)
        assert spec["type"] == "FaultPolicy" and spec["min_quorum"] == 0.4
        assert build(spec, "fault_policy") == policy


class TestTrainerIntegration:
    def test_crash_accept_partial_truncates_epochs(self, synthetic_small):
        trainer = _trainer(
            synthetic_small,
            faults=CrashFaults(rate=1.0, seed=2, min_fraction=0.5, max_fraction=0.5),
            fault_policy=FaultPolicy.fedprox(),
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
            fault_policy=FaultPolicy.fedavg(),
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
        assert manifest["config"]["faults"]["type"] == "ChaosFaults"
        assert manifest["config"]["fault_policy"]["on_crash"] == "retry"
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


class TestTrainerConfig:
    def test_from_config_matches_kwargs(self, synthetic_small):
        config = TrainerConfig.from_kwargs(
            mu=0.5, clients_per_round=4, epochs=2, seed=3,
            evaluation=EvalConfig(every=2),
        )
        model_a = MultinomialLogisticRegression(dim=60, num_classes=10)
        model_b = MultinomialLogisticRegression(dim=60, num_classes=10)
        solver = SGDSolver(0.05, batch_size=10)
        t_cfg = FederatedTrainer.from_config(
            synthetic_small, model_a, solver, config
        )
        t_kw = FederatedTrainer(
            synthetic_small, model_b, solver,
            mu=0.5, clients_per_round=4, epochs=2, seed=3,
            evaluation=EvalConfig(every=2),
        )
        try:
            h_cfg = t_cfg.run(3)
            h_kw = t_kw.run(3)
        finally:
            t_cfg.close()
            t_kw.close()
        assert h_cfg.train_losses == h_kw.train_losses
        assert h_cfg.test_accuracies == h_kw.test_accuracies

    def test_constructor_and_config_share_one_keyword_set(self, synthetic_small):
        params = inspect.signature(FederatedTrainer.__init__).parameters
        assert set(params) - {"self"} == set(TrainerConfig().trainer_kwargs()) | {
            "dataset", "model", "solver", "callbacks"
        }
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        for removed in ({"eval_every": 2}, {"executor": "serial"}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                FederatedTrainer(
                    synthetic_small, model, SGDSolver(0.05, batch_size=10),
                    **removed,
                )
            with pytest.raises(TypeError, match="unknown trainer option"):
                TrainerConfig.from_kwargs(**removed)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="unknown trainer option"):
            TrainerConfig.from_kwargs(mu=1.0, typo_option=3)
        with pytest.raises(TypeError, match="unknown trainer option"):
            TrainerConfig().replace(typo_option=3)

    def test_dict_round_trip_with_objects(self):
        config = TrainerConfig.from_kwargs(
            mu=1.0,
            epochs=5,
            faults=ChaosFaults(rate=0.2, seed=4),
            fault_policy=FaultPolicy.fedavg(min_quorum=0.5),
            seed=9,
            engine="parallel:2",
            label="demo",
        )
        assert TrainerConfig.from_dict(config.to_dict()) == config

    def test_replace_routes_flat_options(self):
        base = TrainerConfig()
        derived = base.replace(
            mu=2.0, evaluation=EvalConfig(every=5), label="sweep"
        )
        assert derived.optimization.mu == 2.0
        assert derived.evaluation.every == 5
        assert derived.label == "sweep"
        assert base.optimization.mu == 0.0  # frozen original untouched

    def test_unreconstructible_description_refused(self):
        config = TrainerConfig.from_kwargs(sampling=object())
        spec = config.to_dict()
        assert spec["cohorting"]["sampling"] == {"type": "object"}
        with pytest.raises(
            ReplayError, match="unknown cohorting.sampling type 'object'"
        ):
            TrainerConfig.from_dict(spec)
