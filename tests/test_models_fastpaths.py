"""Fast-path gating and parity for the model zoo.

Covers the capability matrix of DESIGN.md §12: which models advertise the
stacked evaluation / fused-kernel fast paths, that the runtime's gating
honors them, and that every fast path agrees with its reference
implementation (per-client loops, graph-mode autograd) at the 1e-10 level
or better.
"""

import numpy as np
import pytest

from repro.core import EvalConfig, FederatedTrainer
from repro.core.client import ClientPool
from repro.datasets import make_sent140_like, make_shakespeare_like, make_synthetic
from repro.models import (
    SEQ_EVAL_BLOCK_ROWS,
    CharLSTM,
    MLPClassifier,
    MultinomialLogisticRegression,
    SentimentLSTM,
)
from repro.optim import SGDSolver
from repro.runtime import ParallelExecutor
from repro.runtime.evaluation import (
    STACKED_EVAL_BLOCK,
    FederationEvaluator,
    resolve_eval_mode,
)

TOL = 1e-10


@pytest.fixture(scope="module")
def char_dataset():
    return make_shakespeare_like(
        num_devices=6, vocab_size=20, seq_len=8, samples_per_device_mean=25, seed=0
    )


@pytest.fixture(scope="module")
def sent_dataset():
    return make_sent140_like(
        num_devices=6, vocab_size=48, seq_len=6, samples_per_device_mean=20, seed=0
    )


def _char_model(backend="fused", seed=0):
    return CharLSTM(
        vocab_size=20, embed_dim=4, hidden=12, num_layers=2, seed=seed, backend=backend
    )


def _sent_model(backend="fused", seed=0):
    return SentimentLSTM(
        vocab_size=48, embed_dim=4, hidden=10, num_layers=1, seed=seed, backend=backend
    )


class TestCapabilityGating:
    def test_lstm_models_advertise_stacked_eval(self):
        for model in (_char_model(), _sent_model(), _char_model("graph")):
            assert model.supports_stacked_eval
            assert resolve_eval_mode(model, "auto") == "stacked"

    def test_mlp_advertises_stacked_eval(self):
        model = MLPClassifier(dim=6, num_classes=3)
        assert model.supports_stacked_eval
        assert resolve_eval_mode(model, "auto") == "stacked"

    def test_sequence_models_request_smaller_eval_blocks(self):
        assert _char_model().stacked_eval_block_rows == SEQ_EVAL_BLOCK_ROWS
        assert _sent_model().stacked_eval_block_rows == SEQ_EVAL_BLOCK_ROWS
        assert SEQ_EVAL_BLOCK_ROWS < STACKED_EVAL_BLOCK
        # Flat models defer to the evaluator default.
        assert MLPClassifier(dim=4, num_classes=2).stacked_eval_block_rows is None

    def test_evaluator_honors_model_block_hint(self, char_dataset):
        model = _char_model()
        solver = SGDSolver(0.1, batch_size=10)
        clients = ClientPool(char_dataset, model, solver)
        evaluator = FederationEvaluator(clients, model, eval_mode="stacked")
        assert evaluator.block_size == SEQ_EVAL_BLOCK_ROWS
        flat = MultinomialLogisticRegression(dim=4, num_classes=3)
        ev2 = FederationEvaluator(clients, flat, eval_mode="stacked")
        assert ev2.block_size == STACKED_EVAL_BLOCK

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            CharLSTM(vocab_size=8, backend="numpy")
        with pytest.raises(ValueError, match="backend"):
            SentimentLSTM(vocab_size=32, backend="tf")

    def test_fresh_and_replica_preserve_backend(self):
        model = _char_model("graph")
        assert model.fresh().backend == "graph"
        import pickle

        replica = pickle.loads(pickle.dumps(_char_model().spawn_replica()))
        assert replica.backend == "fused"
        np.testing.assert_array_equal(replica.get_params(), _char_model().get_params())

    def test_capability_summary(self):
        model = _char_model()
        assert model.supports_stacked_eval is True
        assert model.supports_stacked_local_solve is True
        assert model.stacked_local_solve_reason is None
        assert model.stacked_eval_block_rows == SEQ_EVAL_BLOCK_ROWS

    def test_capability_summary_graph_backend(self):
        model = _char_model(backend="graph")
        assert model.supports_stacked_local_solve is False
        assert "gradcheck oracle" in model.stacked_local_solve_reason


def _stacked_vs_per_client(dataset, model, w):
    solver = SGDSolver(0.1, batch_size=10)
    clients = ClientPool(dataset, model, solver)
    stacked = FederationEvaluator(clients, model, eval_mode="stacked")
    legacy = FederationEvaluator(clients, model, eval_mode="per_client")
    assert stacked.train_loss(w) == pytest.approx(legacy.train_loss(w), abs=TOL)
    assert stacked.test_accuracy(w) == pytest.approx(legacy.test_accuracy(w), abs=TOL)


class TestStackedEvalParity:
    def test_mlp(self, toy_dataset):
        model = MLPClassifier(dim=6, num_classes=3, hidden=8, seed=1)
        _stacked_vs_per_client(toy_dataset, model, model.get_params())

    def test_charlstm(self, char_dataset):
        model = _char_model()
        _stacked_vs_per_client(char_dataset, model, model.get_params())

    def test_sentlstm(self, sent_dataset):
        model = _sent_model()
        _stacked_vs_per_client(sent_dataset, model, model.get_params())

    def test_small_block_sizes_agree(self, char_dataset):
        """Blocking must not change results (mean is sample-weighted)."""
        model = _char_model()
        solver = SGDSolver(0.1, batch_size=10)
        clients = ClientPool(char_dataset, model, solver)
        w = model.get_params()
        tiny = FederationEvaluator(clients, model, eval_mode="stacked", block_size=7)
        wide = FederationEvaluator(clients, model, eval_mode="stacked", block_size=10_000)
        assert tiny.train_loss(w) == pytest.approx(wide.train_loss(w), abs=TOL)
        assert tiny.test_accuracy(w) == wide.test_accuracy(w)


def _train(dataset, model, rounds=3, executor=None, eval_mode="auto", seed=1):
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.1, batch_size=10),
        mu=0.1,
        clients_per_round=4,
        epochs=2,
        seed=seed,
        engine=executor,
        evaluation=EvalConfig(mode=eval_mode),
    )
    try:
        return trainer.run(rounds)
    finally:
        trainer.close()


class TestFusedTrainingParity:
    def test_charlstm_fused_matches_graph_history(self, char_dataset):
        h_graph = _train(char_dataset, _char_model("graph"))
        h_fused = _train(char_dataset, _char_model("fused"))
        for r_g, r_f in zip(h_graph.records, h_fused.records):
            assert r_f.train_loss == pytest.approx(r_g.train_loss, abs=TOL)
            assert r_f.test_accuracy == pytest.approx(r_g.test_accuracy, abs=TOL)
            assert r_f.selected == r_g.selected

    def test_sentlstm_fused_matches_graph_history(self, sent_dataset):
        h_graph = _train(sent_dataset, _sent_model("graph"))
        h_fused = _train(sent_dataset, _sent_model("fused"))
        for r_g, r_f in zip(h_graph.records, h_fused.records):
            assert r_f.train_loss == pytest.approx(r_g.train_loss, abs=TOL)
            assert r_f.test_accuracy == pytest.approx(r_g.test_accuracy, abs=TOL)

    def test_mlp_stacked_eval_matches_per_client_history(self):
        dataset = make_synthetic(0.5, 0.5, num_devices=6, seed=3, size_cap=60)
        model_kwargs = dict(dim=60, num_classes=10, hidden=16, seed=2)
        h_stacked = _train(dataset, MLPClassifier(**model_kwargs))
        h_legacy = _train(
            dataset, MLPClassifier(**model_kwargs), eval_mode="per_client"
        )
        for r_s, r_l in zip(h_stacked.records, h_legacy.records):
            assert r_s.train_loss == pytest.approx(r_l.train_loss, abs=TOL)
            assert r_s.test_accuracy == pytest.approx(r_l.test_accuracy, abs=TOL)


@pytest.mark.slow
class TestFusedExecutorParity:
    def test_charlstm_serial_vs_parallel_bit_identical(self, char_dataset):
        """The fused path rides the replica protocol unchanged: a parallel
        run of the fused char-LSTM reproduces the serial history bit for
        bit (same contract the determinism suite pins for logistic)."""
        h_serial = _train(char_dataset, _char_model())
        h_parallel = _train(
            char_dataset, _char_model(), executor=ParallelExecutor(n_workers=2)
        )
        for r_s, r_p in zip(h_serial.records, h_parallel.records):
            assert r_s.train_loss == r_p.train_loss
            assert r_s.test_accuracy == r_p.test_accuracy
            assert r_s.selected == r_p.selected
            assert r_s.stragglers == r_p.stragglers
