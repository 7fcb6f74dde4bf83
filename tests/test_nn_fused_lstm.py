"""The fused LSTM: gradcheck oracle + graph-mode parity.

Testing policy for hand-derived kernels (see DESIGN.md §12): the autograd
engine is the correctness oracle.  A ``backend="fused"`` model has one
training kernel, the stacked one (:mod:`repro.autograd.stacked_lstm`),
which its ``gradient`` runs on one row; every gradient it takes is checked
twice — against central finite differences (:mod:`repro.autograd.gradcheck`)
and against the ``backend="graph"`` model built from the same seed, where
agreement must be at the 1e-10 level (floating-point association is the
only permitted difference).  Its evaluation forward,
:func:`repro.autograd.fused_lstm`, is checked against the graph-mode
:class:`repro.nn.LSTM` the same way.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.autograd import (
    StackedLSTMWorkspace,
    Tensor,
    fused_lstm,
    no_grad,
    stacked_lstm,
)
from repro.models import CharLSTM, SentimentLSTM
from repro.nn import LSTM

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

GRAD_TOL = 1e-10

MODELS = {
    "charlstm": lambda **kw: CharLSTM(vocab_size=12, embed_dim=3, hidden=8, num_layers=2, **kw),
    "sentlstm": lambda **kw: SentimentLSTM(vocab_size=12, embed_dim=3, hidden=8, num_layers=2, **kw),
    "sentlstm-trainable": lambda **kw: SentimentLSTM(
        vocab_size=12, embed_dim=3, hidden=8, num_layers=2, trainable_embedding=True, **kw
    ),
}


def _labels(name, rng, n):
    return rng.integers(12 if name == "charlstm" else 2, size=n)


class TestFusedForward:
    def test_matches_the_graph_lstm(self, rng):
        lstm = LSTM(4, 6, 2, rng)
        triples = [(c.w_x, c.w_h, c.bias) for c in lstm.cells]
        x = rng.normal(size=(3, 5, 4))
        for return_sequence in (False, True):
            with no_grad():
                got = fused_lstm(x, triples, return_sequence=return_sequence)
            want = lstm(Tensor(x), return_sequence=return_sequence)
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=GRAD_TOL)

    def test_constant_inputs_build_no_graph(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [
            (cell.w_x.detach(), cell.w_h.detach(), cell.bias.detach())
            for cell in lstm.cells
        ]
        out = fused_lstm(rng.normal(size=(2, 5, 3)), triples)
        assert out._parents == ()
        assert out._backward_fn is None

    def test_a_call_that_needs_a_gradient_raises(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [(c.w_x, c.w_h, c.bias) for c in lstm.cells]
        with pytest.raises(RuntimeError, match="forward-only"):
            fused_lstm(rng.normal(size=(2, 5, 3)), triples)

    def test_rejects_bad_shapes(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triple = [(lstm.cells[0].w_x, lstm.cells[0].w_h, lstm.cells[0].bias)]
        with pytest.raises(ValueError, match="batch, time, features"):
            fused_lstm(rng.normal(size=(2, 3)), triple)
        with pytest.raises(ValueError, match="layer 0"):
            fused_lstm(rng.normal(size=(2, 3, 5)), triple)  # in=5 vs w_x (3, 16)
        with pytest.raises(ValueError, match="at least one layer"):
            fused_lstm(rng.normal(size=(2, 3, 5)), [])


class TestKernelMatchesGraph:
    """The one training kernel against the per-timestep graph."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_identical_initialization(self, name):
        fused, graph = MODELS[name](), MODELS[name](backend="graph")
        np.testing.assert_array_equal(fused.get_params(), graph.get_params())

    @pytest.mark.parametrize("batch", [1, 2, 7])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_loss_and_gradient_parity(self, rng, name, batch):
        fused, graph = MODELS[name](), MODELS[name](backend="graph")
        w = fused.get_params() + 0.3 * rng.normal(size=fused.n_params)
        fused.set_params(w)
        graph.set_params(w)
        X, y = rng.integers(12, size=(batch, 5)), _labels(name, rng, batch)
        loss_f, grad_f = fused.loss_and_gradient(X, y)
        loss_g, grad_g = graph.loss_and_gradient(X, y)
        assert abs(loss_f - loss_g) <= GRAD_TOL
        np.testing.assert_allclose(grad_f, grad_g, rtol=0, atol=GRAD_TOL)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_gradient_matches_finite_differences(self, rng, name):
        model = MODELS[name]()
        w = model.get_params() + 0.3 * rng.normal(size=model.n_params)
        X, y = rng.integers(12, size=(3, 4)), _labels(name, rng, 3)
        model.set_params(w)
        grad = model.gradient(X, y)
        eps = 1e-6
        for i in rng.choice(model.n_params, size=25, replace=False):
            step = np.zeros_like(w)
            step[i] = eps
            model.set_params(w + step)
            up = model.loss(X, y)
            model.set_params(w - step)
            down = model.loss(X, y)
            assert abs((up - down) / (2 * eps) - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_repeated_steps_stay_consistent(self, rng):
        """Many steps through one workspace drift nowhere: gradients of
        identical inputs are identical on the 1st and 50th pass."""
        model = MODELS["charlstm"]()
        X, y = rng.integers(12, size=(4, 6)), rng.integers(12, size=4)
        reference = model.gradient(X, y)
        for _ in range(49):
            model.gradient(X[:3], y[:3])
            got = model.gradient(X, y)
        np.testing.assert_array_equal(got, reference)

    def test_the_graph_backend_is_not_stackable(self):
        graph = MODELS["charlstm"](backend="graph")
        assert not graph.supports_stacked_local_solve
        assert "gradcheck oracle" in graph.stacked_local_solve_reason


def _workspace(model):
    return model._stacked_store()["lstm_ws"]


class TestEvaluationBuildsNoTape:
    @pytest.mark.parametrize("name", ["charlstm", "sentlstm"])
    def test_model_evaluation_adds_no_tape(self, rng, name):
        model = MODELS[name]()
        X, y = rng.integers(12, size=(6, 9)), _labels(name, rng, 6)
        model.loss_and_gradient(X, y)  # one tape: the gradient's
        tapes = dict(_workspace(model)._tapes)
        assert len(tapes) == 1
        for rows in (1, 6, 40):
            Xe = rng.integers(12, size=(rows, 9))
            model.loss(Xe, _labels(name, rng, rows))
            model.predict(Xe)
            model.accuracy(Xe, _labels(name, rng, rows))
        assert _workspace(model)._tapes == tapes

    def test_every_tape_carries_its_backward_scratch(self):
        st = StackedLSTMWorkspace().acquire(3, 6, 5, 3, 4, 1)
        assert st.bwd.dgates.shape == (3, 6, 5, 16)
        assert st.bwd.dx.shape == (3, 6, 5, 3)

    @pytest.mark.parametrize("key", [(3, 6, 5, 3, 4, 1), (1, 9, 10, 3, 8, 2), (2, 1, 1, 5, 3, 3)])
    def test_a_tape_fills_the_floats_it_asks_for(self, key):
        """``_tape_floats`` is what the tape carves: the model's last
        block ends in the last line of a buffer of that size."""
        extra = {"scores": (2, 7)}
        n = stacked_lstm._tape_floats(*key, extra.values())
        buf = np.empty(n)
        tape = stacked_lstm._LSTMTape(buf, key, extra)
        assert np.shares_memory(tape.scratch["scores"], buf[-8:])
        with pytest.raises(ValueError):
            stacked_lstm._LSTMTape(buf[:-8], key, extra)


class TestFullBatchGradientsDoNotPinTapes:
    """γ measurement, dissimilarity and FedDane take a full-device gradient:
    one new call shape per device size, which the workspace must not keep.
    Every other shape's tape views one arena, sized by the largest in use."""

    def test_every_mini_batch_shape_is_kept(self, rng):
        """A batch of 10 and every shorter last batch: cycled, never rebuilt."""
        model = MODELS["charlstm"]()
        ws = _workspace(model)
        X, y = rng.integers(12, size=(10, 9)), rng.integers(12, size=10)
        for n in range(10, 0, -1):  # a solve's first step is its full batch
            model.gradient(X[:n], y[:n])
        tapes = {key: id(tape) for key, tape in ws._tapes.items()}
        for n in (10, 3, 10, 7, 10, 1, 10, 9):
            model.gradient(X[:n], y[:n])
        assert len(tapes) == 10
        assert {key: id(tape) for key, tape in ws._tapes.items()} == tapes

    def test_every_shape_views_the_start_of_the_arena(self, rng):
        """The arena grows to a larger shape and the smaller shapes are
        built on it again when next used, to the same bits."""
        model, fresh = MODELS["charlstm"](), MODELS["charlstm"]()
        ws = _workspace(model)
        X, y = rng.integers(12, size=(10, 9)), rng.integers(12, size=10)
        for n in range(1, 11):
            assert np.array_equal(model.gradient(X[:n], y[:n]), fresh.gradient(X[:n], y[:n]))
        size = ws._arena.size
        assert list(ws._tapes) == [(1, 9, 10, 3, 8, 2)]
        for n in range(1, 11):
            assert np.array_equal(model.gradient(X[:n], y[:n]), fresh.gradient(X[:n], y[:n]))
        assert ws._arena.size == size and len(ws._tapes) == 10
        for tape in ws._tapes.values():
            assert tape.x.base is ws._arena and np.shares_memory(tape.x, ws._arena[:1])

    def test_a_shape_above_the_cap_is_not_retained(self, rng, monkeypatch):
        model = MODELS["charlstm"]()
        fresh = MODELS["charlstm"]()  # built before the cap shrinks
        ws = _workspace(model)
        X, y = rng.integers(12, size=(60, 9)), rng.integers(12, size=60)
        model.gradient(X[:10], y[:10])
        arena = ws._arena
        monkeypatch.setattr(stacked_lstm, "TAPE_BYTES", arena.nbytes)
        for n in range(11, 60, 4):  # one full device per size, growing
            got = model.gradient(X[:n], y[:n])
            assert np.array_equal(got, fresh.gradient(X[:n], y[:n]))
            assert ws._oversized.key == (1, 9, n, 3, 8, 2)
            assert (1, 9, n, 3, 8, 2) not in ws._tapes
            model.gradient(X[:10], y[:10])  # the solve's next step
            assert ws._oversized is None and ws._arena is arena
        assert list(ws._tapes) == [(1, 9, 10, 3, 8, 2)]

    def test_the_cohort_widths_share_the_arena(self, rng):
        """Stacked calls of every width view the widest one's arena."""
        model = MODELS["charlstm"]()
        ws = _workspace(model)
        W = np.tile(model.get_params(), (4, 1))
        X, y = rng.integers(12, size=(4, 10, 9)), rng.integers(12, size=(4, 10))
        model.stacked_gradient(W, X, y, None, np.full(4, 10.0))
        arena = ws._arena
        for K in (3, 2, 1):
            model.stacked_gradient(W[:K], X[:K], y[:K], None, np.full(K, 10.0))
        assert ws._arena is arena
        assert sorted(ws._tapes) == [(K, 9, 10, 3, 8, 2) for K in (1, 2, 3, 4)]


def _used(model, rng, stacked):
    """Run a solve step, an evaluation block and (optionally) a cohort step."""
    X, y = rng.integers(12, size=(6, 9)), rng.integers(2, size=6)
    model.loss_and_gradient(X, y)
    model.loss(rng.integers(12, size=(40, 9)), rng.integers(2, size=40))
    if stacked:
        W = np.tile(model.get_params(), (3, 1))
        model.stacked_gradient(
            W, rng.integers(12, size=(3, 6, 9)), rng.integers(2, size=(3, 6)),
            None, np.full(3, 6.0),
        )
    return X, y


class TestWorkspacesDoNotTravel:
    """Tapes are scratch: a copied workspace starts empty.

    With per-step views cached in the tape this is a correctness matter —
    a copied tape's views would alias the *original's* buffers (deepcopy)
    or nothing (pickle) — as well as a 200x size one.
    """

    def test_copies_of_a_used_workspace_are_empty(self):
        ws = StackedLSTMWorkspace()
        ws.acquire(2, 4, 3, 2, 5, 1)
        assert len(ws._tapes) == 1
        for clone in (pickle.loads(pickle.dumps(ws)), copy.deepcopy(ws)):
            assert type(clone) is StackedLSTMWorkspace and clone._tapes == {}
            clone.acquire(2, 4, 3, 2, 5, 1)
        assert len(ws._tapes) == 1

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_used_model_round_trips_with_bitwise_gradients(self, rng, name, stacked):
        fresh_size = len(pickle.dumps(MODELS[name]()))
        model = MODELS[name]()
        X, y = _used(model, rng, stacked)
        blob = pickle.dumps(model)
        assert len(blob) < 2 * fresh_size
        want = model.gradient(X, y).copy()
        W = np.tile(model.get_params(), (2, 1)) + rng.normal(size=(2, model.n_params)) * 0.1
        Xs, ys = rng.integers(12, size=(2, 6, 9)), rng.integers(2, size=(2, 6))
        counts = np.full(2, 6.0)
        want_stacked = model.stacked_gradient(W, Xs, ys, None, counts).copy()
        for clone in (pickle.loads(blob), copy.deepcopy(model)):
            for _ in range(2):  # first call allocates, second reuses
                assert np.array_equal(clone.gradient(X, y), want)
                assert np.array_equal(
                    clone.stacked_gradient(W, Xs, ys, None, counts), want_stacked
                )
        # ... and the original was not disturbed by its copies' work.
        assert np.array_equal(model.gradient(X, y), want)
