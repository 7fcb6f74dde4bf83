"""Cohort executor suite: the stacked fast path replays the serial path.

The vectorized cohort solver (:mod:`repro.runtime.cohort`) advances all
selected clients' FedProx local solves through one stacked kernel; its
contract is that training histories match :class:`SerialExecutor` bitwise
or within 1e-12 — losses, accuracies, selections, straggler sets, and
γ-inexactness statistics — at small and large federation sizes, for every
stacked-capable solver, across µ and straggler settings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.datasets import make_synthetic
from repro.models import MLPClassifier, MultinomialLogisticRegression
from repro.optim import (
    AdamSolver,
    GDSolver,
    MomentumSGDSolver,
    SGDSolver,
)
from repro.runtime import CohortExecutor, SerialExecutor, make_executor
from repro.runtime.packing import plan_cohort
from repro.systems import FractionStragglers, PowerLawStragglers

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

TOL = 1e-12
ROUNDS = 3


def _run(
    dataset,
    executor,
    *,
    model=None,
    solver=None,
    mu=1.0,
    straggler=0.5,
    epochs=2.0,
    clients_per_round=4,
    track_gamma=True,
    seed=1,
):
    if model is None:
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
    if solver is None:
        solver = SGDSolver(0.01, batch_size=10)
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=solver,
        mu=mu,
        clients_per_round=clients_per_round,
        epochs=epochs,
        systems=FractionStragglers(straggler, seed=3),
        track_gamma=track_gamma,
        seed=seed,
        engine=executor,
    )
    try:
        return trainer.run(ROUNDS)
    finally:
        trainer.close()


def _assert_histories_match(h_serial, h_cohort, tol=TOL):
    assert len(h_serial) == len(h_cohort) == ROUNDS
    for r1, r2 in zip(h_serial.records, h_cohort.records):
        # Protocol decisions must be *identical*, not just close.
        assert r1.selected == r2.selected
        assert r1.stragglers == r2.stragglers
        assert r1.dropped == r2.dropped
        assert r1.mu == r2.mu
        assert abs(r1.train_loss - r2.train_loss) <= tol
        assert abs(r1.test_accuracy - r2.test_accuracy) <= tol
        if r1.gamma_mean is not None:
            assert abs(r1.gamma_mean - r2.gamma_mean) <= tol
            assert abs(r1.gamma_max - r2.gamma_max) <= tol


@pytest.fixture(scope="module")
def synthetic_10():
    return make_synthetic(1.0, 1.0, num_devices=10, seed=0)


@pytest.fixture(scope="module")
def synthetic_100():
    return make_synthetic(1.0, 1.0, num_devices=100, seed=0)


class TestPackingPlanner:
    """Unit coverage for the skew-aware FFD lane packer."""

    def test_skewed_budgets_pack_into_fewer_lanes(self):
        plan = plan_cohort([10, 4, 3])
        assert plan.t_max == 10
        assert plan.n_lanes == 2
        assert plan.lane_loads == (10, 7)
        # Lane 0: the dominant chain; lane 1: the two short chains
        # back-to-back in FFD order.
        assert [(p.task, p.lane, p.start, p.stop) for p in plan.placements] == [
            (0, 0, 0, 10), (1, 1, 0, 4), (2, 1, 4, 7),
        ]
        assert plan.pack_efficiency == pytest.approx(17 / 20)
        assert plan.ideal_width == pytest.approx(1.7)

    def test_skewed_budget_segments(self):
        plan = plan_cohort([10, 4, 3])
        segs = [(s.lo, s.hi, s.width, s.uniform) for s in plan.segments]
        assert segs == [(0, 4, 2, True), (4, 7, 2, False), (7, 10, 1, True)]
        # The mid segment packs chain 2 behind chain 1, so lane 1 restarts
        # its local step count while lane 0 continues.
        mid = plan.segments[1]
        assert mid.base_steps.tolist() == [5, 1]
        assert [p.task for p in mid.starts] == [2]
        assert [p.task for p in plan.segments[1].ends] == [2]
        assert [p.task for p in plan.segments[2].ends] == [0]

    def test_balanced_cohort_degenerates_to_legacy_prefix(self):
        plan = plan_cohort([5, 5, 5])
        assert plan.n_lanes == 3
        assert plan.lane_loads == (5, 5, 5)
        # One chain per lane, in task order (stable sort), one uniform
        # segment — exactly the legacy one-client-per-row schedule.
        assert [(p.task, p.lane) for p in plan.placements] == [(0, 0), (1, 1), (2, 2)]
        assert len(plan.segments) == 1
        seg = plan.segments[0]
        assert (seg.lo, seg.hi, seg.width, seg.uniform) == (0, 5, 3, True)
        assert seg.base_steps.tolist() == [1, 1, 1]
        assert plan.pack_efficiency == pytest.approx(1.0)

    def test_every_chain_starts_and_ends_exactly_once(self):
        budgets = [13, 1, 7, 2, 13, 5, 1, 4, 9, 3]
        plan = plan_cohort(budgets)
        started = sorted(p.task for s in plan.segments for p in s.starts)
        ended = sorted(p.task for s in plan.segments for p in s.ends)
        assert started == ended == list(range(len(budgets)))
        # Work is schedule-invariant and lanes never exceed capacity.
        assert sum(p.stop - p.start for p in plan.placements) == sum(budgets)
        assert all(load <= plan.t_max for load in plan.lane_loads)
        # Segments tile [0, t_max) and base_steps advance chains correctly.
        assert plan.segments[0].lo == 0
        assert plan.segments[-1].hi == plan.t_max
        for s1, s2 in zip(plan.segments, plan.segments[1:]):
            assert s1.hi == s2.lo
        for seg in plan.segments:
            for lane in range(seg.width):
                p = next(
                    p for p in plan.placements
                    if p.lane == lane and p.start <= seg.lo < p.stop
                )
                assert seg.base_steps[lane] == seg.lo - p.start + 1

    def test_busy_width_is_a_prefix_at_every_step(self):
        plan = plan_cohort([6, 6, 3, 2, 1, 1])
        for seg in plan.segments:
            for t in range(seg.lo, seg.hi):
                busy = {p.lane for p in plan.placements if p.start <= t < p.stop}
                assert busy == set(range(seg.width))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            plan_cohort([])
        with pytest.raises(ValueError, match="positive"):
            plan_cohort([3, 0])


class TestPackEfficiencyGauge:
    def test_gauge_emitted_per_round(self, synthetic_10):
        from repro.telemetry import InMemorySink, Telemetry

        sink = InMemorySink()
        telemetry = Telemetry([sink])
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = FederatedTrainer(
            dataset=synthetic_10,
            model=model,
            solver=SGDSolver(0.01, batch_size=10),
            mu=0.1,
            clients_per_round=4,
            epochs=2.0,
            systems=PowerLawStragglers(2.0, seed=3),
            seed=1,
            engine=CohortExecutor(),
            telemetry=telemetry,
        )
        try:
            trainer.run(ROUNDS)
        finally:
            trainer.close()
        gauges = sink.metrics("cohort.pack_efficiency")
        assert len(gauges) == ROUNDS
        for g in gauges:
            assert 0.0 < g["value"] <= 1.0
            assert g["lanes"] <= g["clients"]
            # Packing never does worse than the legacy K-wide layout.
            legacy = g["ideal_width"] / g["clients"]
            assert g["value"] >= legacy - 1e-12


class TestCohortMatchesSerial:
    """ISSUE acceptance: serial/cohort history equality at 10 and 100 devices."""

    def test_ten_devices(self, synthetic_10):
        h_serial = _run(synthetic_10, SerialExecutor())
        h_cohort = _run(synthetic_10, CohortExecutor())
        _assert_histories_match(h_serial, h_cohort)

    @pytest.mark.slow
    def test_hundred_devices(self, synthetic_100):
        h_serial = _run(synthetic_100, SerialExecutor(), clients_per_round=10)
        h_cohort = _run(synthetic_100, CohortExecutor(), clients_per_round=10)
        _assert_histories_match(h_serial, h_cohort)

    def test_fedavg_no_proximal_term(self, synthetic_10):
        h_serial = _run(synthetic_10, SerialExecutor(), mu=0.0)
        h_cohort = _run(synthetic_10, CohortExecutor(), mu=0.0)
        _assert_histories_match(h_serial, h_cohort)

    def test_fractional_epoch_budgets(self, synthetic_10):
        # straggler=0 so the fractional budget reaches every device
        # (FractionStragglers itself draws integer budgets in [1, E)).
        h_serial = _run(synthetic_10, SerialExecutor(), epochs=1.3, straggler=0.0)
        h_cohort = _run(synthetic_10, CohortExecutor(), epochs=1.3, straggler=0.0)
        _assert_histories_match(h_serial, h_cohort)

    @pytest.mark.slow
    def test_mlp_model(self, synthetic_10):
        h_serial = _run(
            synthetic_10,
            SerialExecutor(),
            model=MLPClassifier(dim=60, num_classes=10, hidden=16),
        )
        h_cohort = _run(
            synthetic_10,
            CohortExecutor(),
            model=MLPClassifier(dim=60, num_classes=10, hidden=16),
        )
        _assert_histories_match(h_serial, h_cohort)


class TestGammaInexactnessAcrossSettings:
    """Satellite: cohort γ equals serial γ over µ × straggler grids."""

    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("straggler", [0.0, 0.5, 0.9])
    def test_gamma_statistics_match(self, synthetic_10, mu, straggler):
        h_serial = _run(synthetic_10, SerialExecutor(), mu=mu, straggler=straggler)
        h_cohort = _run(synthetic_10, CohortExecutor(), mu=mu, straggler=straggler)
        _assert_histories_match(h_serial, h_cohort)

    def test_gamma_per_client(self, synthetic_10):
        """Per-client γ values (not just round statistics) agree."""
        from repro.runtime.executor import LocalTask

        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        solver = SGDSolver(0.01, batch_size=10)
        serial = SerialExecutor()
        cohort = CohortExecutor()
        serial.bind(synthetic_10, model.clone(), solver)
        cohort.bind(synthetic_10, model.clone(), solver)
        w0 = model.get_params()
        tasks = [
            LocalTask(
                client_id=cid,
                w_global=w0,
                mu=0.5,
                epochs=e,
                rng_entropy=(5, 0, cid, 0),
                measure_gamma=True,
            )
            for cid, e in [(0, 2.0), (3, 0.7), (5, 2.0), (7, 1.2)]
        ]
        serial_updates = serial.run_local_solves(tasks)
        cohort_updates = cohort.run_local_solves(tasks)
        for u1, u2 in zip(serial_updates, cohort_updates):
            assert u1.client_id == u2.client_id
            assert u1.gradient_evaluations == u2.gradient_evaluations
            assert abs(u1.gamma - u2.gamma) <= TOL
            np.testing.assert_allclose(u1.w, u2.w, rtol=0, atol=TOL)


class TestSkewedBudgetGrids:
    """Satellite: packed multi-chain lanes replay serial under power-law skew.

    ``PowerLawStragglers`` makes budgets heavy-tailed, so lanes run several
    client chains back-to-back and segments mix per-row local steps — the
    exact machinery the packing planner added.  Histories (including γ per
    client) must still match the serial path.
    """

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_history_parity_across_skew(self, synthetic_10, mu, alpha):
        def run(executor):
            trainer = FederatedTrainer(
                dataset=synthetic_10,
                model=MultinomialLogisticRegression(dim=60, num_classes=10),
                solver=SGDSolver(0.01, batch_size=10),
                mu=mu,
                clients_per_round=5,
                epochs=3.0,
                systems=PowerLawStragglers(alpha, seed=3),
                track_gamma=True,
                seed=1,
                engine=executor,
            )
            try:
                return trainer.run(ROUNDS)
            finally:
                trainer.close()

        _assert_histories_match(run(SerialExecutor()), run(CohortExecutor()))

    @pytest.mark.parametrize(
        "solver_factory",
        [
            lambda: MomentumSGDSolver(0.01, momentum=0.9, batch_size=10),
            lambda: AdamSolver(0.005, batch_size=10),
        ],
        ids=["momentum", "adam"],
    )
    def test_stateful_solvers_on_packed_lanes(self, synthetic_10, solver_factory):
        """Solver state resets cleanly when a lane starts a new chain.

        Adam additionally exercises the per-row bias-correction step
        indices that mixed-offset segments feed through ``stacked_step``.
        """

        def run(executor):
            trainer = FederatedTrainer(
                dataset=synthetic_10,
                model=MultinomialLogisticRegression(dim=60, num_classes=10),
                solver=solver_factory(),
                mu=0.1,
                clients_per_round=5,
                epochs=3.0,
                systems=PowerLawStragglers(2.0, seed=7),
                track_gamma=True,
                seed=2,
                engine=executor,
            )
            try:
                return trainer.run(ROUNDS)
            finally:
                trainer.close()

        _assert_histories_match(run(SerialExecutor()), run(CohortExecutor()))


class TestOtherSolversOnCohortPath:
    @pytest.mark.parametrize(
        "solver_factory",
        [
            lambda: MomentumSGDSolver(0.01, momentum=0.9, batch_size=10),
            lambda: AdamSolver(0.005, batch_size=10),
            lambda: GDSolver(0.05),
        ],
        ids=["momentum", "adam", "gd"],
    )
    def test_solver_matches_serial(self, synthetic_10, solver_factory):
        h_serial = _run(synthetic_10, SerialExecutor(), solver=solver_factory())
        h_cohort = _run(synthetic_10, CohortExecutor(), solver=solver_factory())
        _assert_histories_match(h_serial, h_cohort)


class TestCapabilityGating:
    def test_model_without_stacked_gradient_rejected(self, synthetic_10):
        class NoStackModel(MultinomialLogisticRegression):
            @property
            def supports_stacked_local_solve(self):
                return False

        with pytest.raises(TypeError, match="supports_stacked_local_solve"):
            _run(
                synthetic_10,
                CohortExecutor(),
                model=NoStackModel(dim=60, num_classes=10),
            )

    def test_solver_without_stacked_protocol_rejected(self, synthetic_10):
        class NoStackSolver(SGDSolver):
            @property
            def supports_stacked_solve(self):
                return False

        with pytest.raises(TypeError, match="supports_stacked_solve"):
            _run(synthetic_10, CohortExecutor(), solver=NoStackSolver(0.01))

    def test_gating_happens_at_bind_not_first_round(self, synthetic_10):
        """The failure is immediate — never mid-experiment."""
        executor = CohortExecutor()
        model = MLPClassifier(dim=60, num_classes=10, hidden=8)

        class NoStackSolver(SGDSolver):
            @property
            def supports_stacked_solve(self):
                return False

        with pytest.raises(TypeError):
            executor.bind(synthetic_10, model, NoStackSolver(0.01))


class TestExecutorModeDispatch:
    def test_trainer_accepts_cohort_string(self, synthetic_10):
        h_string = _run(synthetic_10, "cohort")
        h_instance = _run(synthetic_10, CohortExecutor())
        _assert_histories_match(h_string, h_instance, tol=0.0)

    def test_make_executor_modes(self):
        from repro.runtime import (
            EXECUTOR_MODES,
            AsyncExecutor as AE,
            CohortExecutor as CE,
            ParallelExecutor as PE,
            SerialExecutor as SE,
        )

        assert tuple(EXECUTOR_MODES) == ("serial", "parallel", "cohort", "async")
        assert all(isinstance(doc, str) for doc in EXECUTOR_MODES.values())
        assert isinstance(make_executor("serial"), SE)
        assert isinstance(make_executor("parallel", n_workers=1), PE)
        assert isinstance(make_executor("cohort"), CE)
        assert isinstance(make_executor("async:window=2"), AE)

    def test_make_executor_spec_grammar(self):
        from repro.runtime import parse_executor_spec

        executor = make_executor("parallel:3")
        assert executor.n_workers == 3
        assert parse_executor_spec("parallel:auto") == (
            "parallel",
            {"n_workers": "auto"},
        )
        assert parse_executor_spec("serial") == ("serial", {})

    @pytest.mark.parametrize(
        "spec", ["banana", "serial:2", "cohort:auto", "parallel:zero", "parallel:0"]
    )
    def test_make_executor_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            make_executor(spec)

    def test_make_executor_rejects_conflicting_worker_counts(self):
        with pytest.raises(ValueError, match="not both"):
            make_executor("parallel:2", n_workers=3)


class TestStackedGradientKernels:
    """Row k of the stacked kernel equals the scalar gradient at W[k]."""

    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: MultinomialLogisticRegression(dim=7, num_classes=4),
            lambda: MultinomialLogisticRegression(dim=7, num_classes=4, l2=0.1),
            lambda: MLPClassifier(dim=7, num_classes=4, hidden=5, seed=2),
        ],
        ids=["logistic", "logistic-l2", "mlp"],
    )
    def test_rowwise_equivalence(self, model_factory, rng):
        model = model_factory()
        K, B = 3, 6
        X = rng.normal(size=(K, B, 7))
        y = rng.integers(0, 4, size=(K, B)).astype(np.int64)
        W = rng.normal(size=(K, model.n_params))
        mask = np.ones((K, B))
        counts = np.full(K, float(B))
        # Ragged final row: only 4 real samples, rest padding.
        X[2, 4:] = 0.0
        y[2, 4:] = 0
        mask[2, 4:] = 0.0
        counts[2] = 4.0

        stacked = model.stacked_gradient(W, X, y, mask, counts).copy()
        for k in range(K):
            n_k = int(counts[k])
            model.set_params(W[k])
            scalar = model.gradient(X[k, :n_k], y[k, :n_k])
            np.testing.assert_allclose(stacked[k], scalar, rtol=0, atol=1e-14)

    def test_mask_none_means_dense(self, rng):
        """``mask=None`` is the identity-mask fast path, bitwise."""
        model = MultinomialLogisticRegression(dim=5, num_classes=3)
        K, B = 2, 4
        X = rng.normal(size=(K, B, 5))
        y = rng.integers(0, 3, size=(K, B)).astype(np.int64)
        W = rng.normal(size=(K, model.n_params))
        counts = np.full(K, float(B))
        masked = model.stacked_gradient(W, X, y, np.ones((K, B)), counts).copy()
        dense = model.stacked_gradient(W, X, y, None, counts).copy()
        np.testing.assert_array_equal(masked, dense)

    def test_default_model_raises(self, toy_model):
        from repro.models.base import FederatedModel

        assert FederatedModel.supports_stacked_local_solve.fget(toy_model) is False

        class Minimal(MultinomialLogisticRegression):
            pass

        # The base-class default (used by models that never opt in).
        with pytest.raises(NotImplementedError, match="stacked_gradient"):
            FederatedModel.stacked_gradient(
                Minimal(dim=2, num_classes=2),
                np.zeros((1, 6)),
                np.zeros((1, 2, 2)),
                np.zeros((1, 2), dtype=np.int64),
                None,
                np.ones(1),
            )
