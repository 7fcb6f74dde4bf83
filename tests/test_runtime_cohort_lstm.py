"""Cohort execution of the LSTM workloads (stacked multi-client solve).

CharLSTM and SentimentLSTM run under ``CohortExecutor`` with histories
matching :class:`SerialExecutor`; a serial solve runs the same stacked
kernel on one row, so each client row of ``stacked_gradient`` equals the
serial gradient bitwise when it runs at its own height, and the graph
backend — kept as the gradcheck oracle — is rejected at bind time with
the capability reason.

Histories compare with ``==``, but for SentimentLSTM, which keeps
``PADDED_TOL``: a short batch runs at its own height in a serial solve and
at the cohort's padded height in a lane, and the one-logit head's
products are matrix-vector products (gemv), whose rounding depends on the
height.  CharLSTM's padded rows are bitwise their own-height rows from two
real rows on; a padded row with one real row goes through gemv serially
(``TestStackedGradientRowwise`` names both).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FederatedTrainer
from repro.datasets import make_sent140_like, make_shakespeare_like
from repro.models import CharLSTM, SentimentLSTM
from repro.optim import AdamSolver, MomentumSGDSolver, SGDSolver
from repro.runtime import CohortExecutor, SerialExecutor
from repro.systems import PowerLawStragglers

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

TOL = 0.0  # histories compare with ==
PADDED_TOL = 1e-9  # SentimentLSTM's padded head products (module docstring)
ROUNDS = 3


@pytest.fixture(scope="module")
def shakespeare():
    return make_shakespeare_like(
        num_devices=8, seq_len=10, samples_per_device_mean=20, seed=0
    )


@pytest.fixture(scope="module")
def sent140():
    return make_sent140_like(
        num_devices=8, seq_len=8, samples_per_device_mean=20, seed=1
    )


def _char_model(**overrides):
    kwargs = dict(vocab_size=80, embed_dim=4, hidden=8, num_layers=2, seed=0)
    kwargs.update(overrides)
    return CharLSTM(**kwargs)


def _sent_model(**overrides):
    kwargs = dict(vocab_size=400, embed_dim=6, hidden=8, num_layers=2, seed=0)
    kwargs.update(overrides)
    return SentimentLSTM(**kwargs)


def _run(dataset, model, executor, *, solver=None, alpha=1.0, mu=0.01):
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=solver or SGDSolver(0.05, batch_size=8),
        mu=mu,
        clients_per_round=4,
        epochs=2.0,
        systems=PowerLawStragglers(alpha, seed=3),
        track_gamma=True,
        seed=1,
        engine=executor,
    )
    try:
        return trainer.run(ROUNDS)
    finally:
        trainer.close()


def _assert_histories_match(h_serial, h_cohort, tol=TOL):
    assert len(h_serial) == len(h_cohort) == ROUNDS
    for r1, r2 in zip(h_serial.records, h_cohort.records):
        assert r1.selected == r2.selected
        assert r1.stragglers == r2.stragglers
        assert abs(r1.train_loss - r2.train_loss) <= tol
        assert abs(r1.test_accuracy - r2.test_accuracy) <= tol
        if r1.gamma_mean is not None:
            assert abs(r1.gamma_mean - r2.gamma_mean) <= tol


class TestLSTMCohortMatchesSerial:
    @pytest.mark.parametrize("mu", [0.0, 0.01])
    def test_charlstm(self, shakespeare, mu):
        h_serial = _run(shakespeare, _char_model(), SerialExecutor(), mu=mu)
        h_cohort = _run(shakespeare, _char_model(), CohortExecutor(), mu=mu)
        _assert_histories_match(h_serial, h_cohort)

    def test_charlstm_heavy_skew(self, shakespeare):
        """alpha=3 packs several chains per lane (the planner's territory)."""
        h_serial = _run(shakespeare, _char_model(), SerialExecutor(), alpha=3.0)
        h_cohort = _run(shakespeare, _char_model(), CohortExecutor(), alpha=3.0)
        _assert_histories_match(h_serial, h_cohort)

    def test_sentlstm_frozen_embedding(self, sent140):
        h_serial = _run(sent140, _sent_model(), SerialExecutor())
        h_cohort = _run(sent140, _sent_model(), CohortExecutor())
        _assert_histories_match(h_serial, h_cohort, tol=PADDED_TOL)

    def test_sentlstm_trainable_embedding(self, sent140):
        h_serial = _run(
            sent140, _sent_model(trainable_embedding=True), SerialExecutor()
        )
        h_cohort = _run(
            sent140, _sent_model(trainable_embedding=True), CohortExecutor()
        )
        _assert_histories_match(h_serial, h_cohort, tol=PADDED_TOL)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "solver_factory",
        [
            lambda: MomentumSGDSolver(0.02, momentum=0.9, batch_size=8),
            lambda: AdamSolver(0.005, batch_size=8),
        ],
        ids=["momentum", "adam"],
    )
    def test_stateful_solvers(self, shakespeare, solver_factory):
        h_serial = _run(
            shakespeare, _char_model(), SerialExecutor(),
            solver=solver_factory(), alpha=2.0,
        )
        h_cohort = _run(
            shakespeare, _char_model(), CohortExecutor(),
            solver=solver_factory(), alpha=2.0,
        )
        _assert_histories_match(h_serial, h_cohort)


class TestStackedGradientRowwise:
    """Row k of stacked_gradient equals the serial gradient at W[k].

    Bitwise for dense rows.  A ragged row runs at the padded height, so it
    matches its own-height gradient to rounding: SentimentLSTM's head is a
    matrix-vector product at any height, and a one-real-row batch is one
    serially.
    """

    @pytest.mark.parametrize(
        "model_factory",
        [
            lambda: CharLSTM(vocab_size=12, embed_dim=5, hidden=7, num_layers=2, seed=1),
            lambda: SentimentLSTM(vocab_size=15, embed_dim=4, hidden=6, num_layers=2, seed=2),
            lambda: SentimentLSTM(
                vocab_size=15, embed_dim=4, hidden=6, num_layers=2,
                trainable_embedding=True, seed=3,
            ),
        ],
        ids=["charlstm", "sentlstm-frozen", "sentlstm-trainable"],
    )
    def test_rowwise_equivalence(self, model_factory, rng):
        model = model_factory()
        K, B, T = 4, 6, 5
        n_classes = model.vocab_size if isinstance(model, CharLSTM) else 2
        W = rng.normal(size=(K, model.n_params)) * 0.3
        X = rng.integers(0, model.vocab_size, size=(K, B, T))
        y = rng.integers(0, n_classes, size=(K, B))
        mask = np.ones((K, B))
        counts = np.full(K, float(B))
        # Ragged rows: padding slots hold token/label 0 and zero mask.
        for k, n_k in enumerate([B, 3, B, 1]):
            X[k, n_k:] = 0
            y[k, n_k:] = 0
            mask[k, n_k:] = 0.0
            counts[k] = n_k

        stacked = model.stacked_gradient(W, X, y, mask, counts).copy()
        for k in range(K):
            n_k = int(counts[k])
            model.set_params(W[k])
            scalar = model.gradient(X[k, :n_k], y[k, :n_k])
            np.testing.assert_allclose(stacked[k], scalar, rtol=0, atol=1e-14)

    def test_dense_rows_bitwise(self, rng):
        """With no padding the stacked kernel is bitwise the scalar path."""
        model = CharLSTM(vocab_size=9, embed_dim=3, hidden=5, num_layers=2, seed=4)
        K, B, T = 3, 4, 6
        W = rng.normal(size=(K, model.n_params)) * 0.3
        X = rng.integers(0, 9, size=(K, B, T))
        y = rng.integers(0, 9, size=(K, B))
        stacked = model.stacked_gradient(W, X, y, None, np.full(K, float(B))).copy()
        for k in range(K):
            model.set_params(W[k])
            np.testing.assert_array_equal(stacked[k], model.gradient(X[k], y[k]))


class TestLSTMCapabilityGating:
    def test_fused_backend_advertises_support(self):
        for model in (_char_model(), _sent_model()):
            assert model.supports_stacked_local_solve is True
            assert model.stacked_local_solve_reason is None

    def test_graph_backend_reports_reason(self):
        model = _char_model(backend="graph")
        assert model.supports_stacked_local_solve is False
        assert "gradcheck oracle" in model.stacked_local_solve_reason

    def test_graph_backend_rejected_at_bind_with_reason(self, shakespeare):
        with pytest.raises(TypeError, match="gradcheck oracle"):
            CohortExecutor().bind(
                shakespeare, _char_model(backend="graph"), SGDSolver(0.05)
            )

    def test_graph_backend_stacked_gradient_raises(self):
        model = _sent_model(backend="graph")
        with pytest.raises(NotImplementedError, match="fused"):
            model.stacked_gradient(
                np.zeros((1, model.n_params)),
                np.zeros((1, 2, 3), dtype=np.int64),
                np.zeros((1, 2), dtype=np.int64),
                None,
                np.ones(1),
            )

    def test_default_reason_names_missing_kernel(self):
        from repro.models import MLPClassifier

        class NoStack(MLPClassifier):
            @property
            def supports_stacked_local_solve(self):
                return False

        model = NoStack(dim=4, num_classes=3, hidden=4)
        assert "stacked_gradient" in model.stacked_local_solve_reason
