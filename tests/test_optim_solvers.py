"""Tests for local solvers, batch plans, and the proximal objective."""

import numpy as np
import pytest

from repro.models import MultinomialLogisticRegression
from repro.optim import (
    AdamSolver,
    BatchSchedule,
    GDSolver,
    LocalObjective,
    MomentumSGDSolver,
    SGDSolver,
)
from repro.spec import build, describe


def _objective(mu=0.0, w_ref=None, n=30, dim=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    y = (X @ rng.normal(size=(dim, classes))).argmax(axis=1)
    model = MultinomialLogisticRegression(dim=dim, num_classes=classes)
    return LocalObjective(model, X, y, w_ref=w_ref, mu=mu), model


class TestBatchPlans:
    def test_epoch_batches_cover_all_indices(self, rng):
        batches = BatchSchedule(25, 10).one_epoch(rng)
        seen = np.concatenate(batches)
        assert sorted(seen) == list(range(25))

    def test_epoch_batches_final_partial_kept(self, rng):
        batches = BatchSchedule(25, 10).one_epoch(rng)
        assert [len(b) for b in batches] == [10, 10, 5]

    def test_epoch_batches_large_batch_single(self, rng):
        batches = BatchSchedule(5, 100).one_epoch(rng)
        assert len(batches) == 1 and len(batches[0]) == 5

    @pytest.mark.parametrize("n,bs,expected", [(25, 10, 3), (30, 10, 3), (5, 100, 1), (10, 1, 10)])
    def test_batches_per_epoch(self, n, bs, expected):
        assert BatchSchedule(n, bs).per_epoch == expected

    @pytest.mark.parametrize("epochs,expected", [(1, 3), (2, 6), (0.5, 2), (1.5, 4)])
    def test_work_batches_count(self, rng, epochs, expected):
        batches = list(BatchSchedule(25, 10, epochs).batches(rng))
        assert len(batches) == expected

    def test_work_batches_minimum_one(self, rng):
        assert len(list(BatchSchedule(25, 10, 0.01).batches(rng))) == 1

    def test_work_batches_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            BatchSchedule(10, 5, -1)

    def test_work_batches_deterministic_given_rng(self):
        a = list(BatchSchedule(20, 7, 2).batches(np.random.default_rng(5)))
        b = list(BatchSchedule(20, 7, 2).batches(np.random.default_rng(5)))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestLocalObjective:
    def test_mu_zero_is_plain_loss(self):
        obj, model = _objective(mu=0.0)
        w = np.zeros(model.n_params)
        model.set_params(w)
        assert obj.loss(w) == pytest.approx(model.loss(obj.X, obj.y))

    def test_proximal_term_added(self):
        w_ref = np.zeros(4 * 3 + 3)
        obj, model = _objective(mu=2.0, w_ref=w_ref)
        w = np.ones_like(w_ref)
        base = obj.loss(w) - 0.5 * 2.0 * float(w @ w)
        model.set_params(w)
        assert base == pytest.approx(model.loss(obj.X, obj.y))

    def test_proximal_gradient(self):
        w_ref = np.zeros(15)
        obj, model = _objective(mu=3.0, w_ref=w_ref)
        w = np.full(15, 0.5)
        grad_prox = obj.gradient(w)
        obj_plain, model_plain = _objective(mu=0.0)
        grad_plain = obj_plain.gradient(w)
        np.testing.assert_allclose(grad_prox, grad_plain + 3.0 * w)

    def test_minibatch_gradient_uses_indices(self):
        obj, model = _objective()
        w = np.zeros(15)
        g_full = obj.gradient(w)
        g_batch = obj.gradient(w, indices=np.arange(5))
        assert not np.allclose(g_full, g_batch)

    def test_loss_and_gradient_consistent(self):
        w_ref = np.ones(15) * 0.1
        obj, _ = _objective(mu=0.5, w_ref=w_ref)
        w = np.full(15, 0.3)
        loss, grad = obj.loss_and_gradient(w)
        assert loss == pytest.approx(obj.loss(w))
        np.testing.assert_allclose(grad, obj.gradient(w))

    def test_correction_term(self):
        obj, _ = _objective()
        correction = np.full(15, 0.25)
        obj_corrected, _ = _objective()
        obj_corrected.correction = correction
        w = np.zeros(15)
        assert obj_corrected.loss(w) == pytest.approx(obj.loss(w))  # <c, 0> = 0
        np.testing.assert_allclose(
            obj_corrected.gradient(w), obj.gradient(w) + correction
        )
        w1 = np.ones(15)
        assert obj_corrected.loss(w1) == pytest.approx(obj.loss(w1) + correction.sum())

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            _objective(mu=-1.0, w_ref=np.zeros(15))

    def test_mu_without_ref_rejected(self):
        with pytest.raises(ValueError, match="w_ref"):
            _objective(mu=1.0, w_ref=None)


class TestSGDSolver:
    def test_reduces_objective(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w = SGDSolver(0.2, batch_size=10).solve(obj, w0, epochs=10, rng=rng)
        assert obj.loss(w) < obj.loss(w0)

    def test_does_not_mutate_start(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        SGDSolver(0.2).solve(obj, w0, epochs=1, rng=rng)
        np.testing.assert_array_equal(w0, np.zeros(model.n_params))

    def test_deterministic_given_rng(self):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w1 = SGDSolver(0.1).solve(obj, w0, 3, np.random.default_rng(1))
        w2 = SGDSolver(0.1).solve(obj, w0, 3, np.random.default_rng(1))
        np.testing.assert_array_equal(w1, w2)

    def test_fractional_epoch_does_less_work(self):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w_frac = SGDSolver(0.1).solve(obj, w0, 0.34, np.random.default_rng(1))
        w_full = SGDSolver(0.1).solve(obj, w0, 1.0, np.random.default_rng(1))
        # Fractional run moved less far from the start.
        assert np.linalg.norm(w_frac - w0) < np.linalg.norm(w_full - w0)

    def test_proximal_pull_limits_drift(self):
        w_ref = np.zeros(15)
        obj_free, _ = _objective(mu=0.0, seed=9)
        obj_prox, _ = _objective(mu=10.0, w_ref=w_ref, seed=9)
        w_free = SGDSolver(0.1).solve(obj_free, w_ref, 20, np.random.default_rng(2))
        w_prox = SGDSolver(0.1).solve(obj_prox, w_ref, 20, np.random.default_rng(2))
        assert np.linalg.norm(w_prox - w_ref) < np.linalg.norm(w_free - w_ref)

    @pytest.mark.parametrize("lr,bs", [(0.0, 10), (-0.1, 10), (0.1, 0)])
    def test_invalid_hyperparameters(self, lr, bs):
        with pytest.raises(ValueError):
            SGDSolver(lr, batch_size=bs)

    def test_describe(self):
        assert describe(SGDSolver(0.1)) == {
            "type": "SGDSolver", "learning_rate": 0.1, "batch_size": 10,
        }


class TestOtherSolvers:
    def test_momentum_reduces_objective(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w = MomentumSGDSolver(0.05, momentum=0.9).solve(obj, w0, 10, rng)
        assert obj.loss(w) < obj.loss(w0)

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            MomentumSGDSolver(0.1, momentum=1.0)

    def test_gd_reduces_objective(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w = GDSolver(0.5).solve(obj, w0, 20, rng)
        assert obj.loss(w) < obj.loss(w0)

    def test_gd_fractional_rounds_to_one_step(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w_one = GDSolver(0.5).solve(obj, w0, 1, np.random.default_rng(0))
        w_frac = GDSolver(0.5).solve(obj, w0, 0.3, np.random.default_rng(0))
        np.testing.assert_array_equal(w_one, w_frac)

    def test_adam_reduces_objective(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        w = AdamSolver(0.05).solve(obj, w0, 10, rng)
        assert obj.loss(w) < obj.loss(w0)

    def test_adam_validation(self):
        with pytest.raises(ValueError):
            AdamSolver(learning_rate=-1)
        with pytest.raises(ValueError):
            AdamSolver(beta1=1.5)

    def test_all_solvers_share_interface(self, rng):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        for solver in [
            SGDSolver(0.1),
            MomentumSGDSolver(0.05),
            GDSolver(0.3),
            AdamSolver(0.02),
        ]:
            w = solver.solve(obj, w0, 2, np.random.default_rng(0))
            assert w.shape == w0.shape
            assert describe(build(describe(solver))) == describe(solver)


class TestAdamStatelessness:
    """Moment state must reset between solves (stateless-device contract)."""

    def test_scalar_solves_are_independent(self):
        obj, model = _objective()
        w0 = np.zeros(model.n_params)
        solver = AdamSolver(0.05)
        first = solver.solve(obj, w0, 3, np.random.default_rng(0))
        again = solver.solve(obj, w0, 3, np.random.default_rng(0))
        # A second solve from the same start must not see the first solve's
        # moments: identical inputs -> identical trajectory.
        np.testing.assert_array_equal(first, again)

    def test_stacked_state_resets_moments_per_solve(self):
        solver = AdamSolver(0.05)
        shape = (4, 7)
        state = solver.stacked_state(shape)
        assert np.all(state["m"] == 0.0) and np.all(state["v"] == 0.0)
        # Dirty the state as a cohort solve would, then confirm a fresh
        # request starts zeroed again (no leakage across cohort solves).
        W = np.ones(shape)
        G = np.full(shape, 0.5)
        solver.stacked_step(W, G, state, step=1)
        assert np.any(state["m"] != 0.0)
        fresh = solver.stacked_state(shape)
        assert np.all(fresh["m"] == 0.0) and np.all(fresh["v"] == 0.0)
        assert fresh["m"] is not state["m"]

    def test_stacked_step_matches_scalar_update(self):
        """One stacked step row-for-row equals one scalar Adam update."""
        solver = AdamSolver(0.01, beta1=0.9, beta2=0.999)
        rng = np.random.default_rng(3)
        W = rng.normal(size=(3, 5))
        G = rng.normal(size=(3, 5))
        expected = []
        for k in range(3):
            w = W[k].copy()
            m = solver.beta1 * np.zeros(5) + (1 - solver.beta1) * G[k]
            v = solver.beta2 * np.zeros(5) + (1 - solver.beta2) * G[k] ** 2
            m_hat = m / (1 - solver.beta1**1)
            v_hat = v / (1 - solver.beta2**1)
            w -= solver.learning_rate * m_hat / (np.sqrt(v_hat) + solver.eps)
            expected.append(w)
        state = solver.stacked_state((3, 5))
        solver.stacked_step(W, G.copy(), state, step=1)
        np.testing.assert_array_equal(W, np.array(expected))

    def test_per_row_steps_take_the_scalar_bias_correction(self):
        """Packed lanes at different chain offsets pass an array of steps;
        each row must get the bias correction its scalar step computes
        (``np.power`` on an array may differ from ``float ** int`` by an
        ulp, e.g. at 0.9 ** 12 and 0.999 ** 7 on a SIMD ``pow``)."""
        solver = AdamSolver(0.01)
        steps = np.array([1, 7, 12, 23, 40, 86])
        rng = np.random.default_rng(4)
        W0 = rng.normal(size=(len(steps), 5))
        G = rng.normal(size=(len(steps), 5))
        state = solver.stacked_state(W0.shape)
        state["m"][:] = rng.normal(size=W0.shape)
        state["v"][:] = rng.random(size=W0.shape)
        moments = state["m"].copy(), state["v"].copy()
        W = W0.copy()
        solver.stacked_step(W, G.copy(), state, steps)
        for k, step in enumerate(steps.tolist()):
            one = solver.stacked_state((1, 5))
            one["m"][:], one["v"][:] = moments[0][k], moments[1][k]
            w = W0[k : k + 1].copy()
            solver.stacked_step(w, G[k : k + 1].copy(), one, step)
            np.testing.assert_array_equal(W[k], w[0])

    def test_stacked_and_described_by_its_spec(self):
        solver = AdamSolver(0.001)
        assert solver.supports_stacked_solve
        assert build(describe(solver)).learning_rate == 0.001
