"""Fused LSTM kernels: gradcheck oracle + graph-mode parity.

Testing policy for hand-derived kernels (see DESIGN.md §12): the autograd
engine is the correctness oracle.  Every fused gradient is checked twice —
against central finite differences (:mod:`repro.autograd.gradcheck`) and
against the graph-mode :class:`repro.nn.LSTM` built from the same seed,
where agreement must be at the 1e-10 level (floating-point association is
the only permitted difference).
"""

import copy
import pickle

import numpy as np
import pytest

from repro.autograd import (
    FusedLSTMWorkspace,
    StackedLSTMWorkspace,
    Tensor,
    check_gradients,
    fused_lstm,
    no_grad,
    ops,
)
from repro.autograd import functional
from repro.models import CharLSTM, SentimentLSTM
from repro.nn import LSTM, FusedLSTM

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

GRAD_TOL = 1e-10


def _pair(input_size, hidden, layers, seed=3):
    """A graph-mode and a fused LSTM with identical initialization."""
    graph = LSTM(input_size, hidden, layers, np.random.default_rng(seed))
    fused = FusedLSTM(input_size, hidden, layers, np.random.default_rng(seed))
    return graph, fused


class TestFusedLSTMFunction:
    def test_gradcheck_single_layer(self, rng):
        x = rng.normal(size=(2, 3, 3))
        cell = LSTM(3, 2, 1, rng).cells[0]

        def fn(ts):
            w_x, w_h, b, xt = ts
            return ops.sum_(fused_lstm(xt, [(w_x, w_h, b)]))

        check_gradients(
            fn,
            [cell.w_x.data.copy(), cell.w_h.data.copy(), cell.bias.data.copy(), x],
            rtol=1e-3,
        )

    def test_gradcheck_two_layers_sequence(self, rng):
        x = rng.normal(size=(2, 3, 2))
        lstm = LSTM(2, 2, 2, rng)
        c0, c1 = lstm.cells[0], lstm.cells[1]

        def fn(ts):
            w0, h0, b0, w1, h1, b1 = ts
            out = fused_lstm(
                x, [(w0, h0, b0), (w1, h1, b1)], return_sequence=True
            )
            return ops.sum_(ops.mul(out, out))

        check_gradients(
            fn,
            [
                c0.w_x.data.copy(), c0.w_h.data.copy(), c0.bias.data.copy(),
                c1.w_x.data.copy(), c1.w_h.data.copy(), c1.bias.data.copy(),
            ],
            rtol=1e-3,
        )

    def test_constant_inputs_build_no_graph(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [
            (cell.w_x.detach(), cell.w_h.detach(), cell.bias.detach())
            for cell in lstm.cells
        ]
        out = fused_lstm(rng.normal(size=(2, 5, 3)), triples)
        assert out._parents == ()
        assert out._backward_fn is None

    def test_rejects_bad_shapes(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triple = [(lstm.cells[0].w_x, lstm.cells[0].w_h, lstm.cells[0].bias)]
        with pytest.raises(ValueError, match="batch, time, features"):
            fused_lstm(rng.normal(size=(2, 3)), triple)
        with pytest.raises(ValueError, match="layer 0"):
            fused_lstm(rng.normal(size=(2, 3, 5)), triple)  # in=5 vs w_x (3, 16)
        with pytest.raises(ValueError, match="at least one layer"):
            fused_lstm(rng.normal(size=(2, 3, 5)), [])

    def test_stale_workspace_backward_raises(self, rng):
        lstm = LSTM(3, 4, 1, rng)
        triples = [(lstm.cells[0].w_x, lstm.cells[0].w_h, lstm.cells[0].bias)]
        ws = FusedLSTMWorkspace()
        x = rng.normal(size=(2, 3, 3))
        first = ops.sum_(fused_lstm(x, triples, workspace=ws))
        ops.sum_(fused_lstm(x, triples, workspace=ws))  # recycles the tape
        with pytest.raises(RuntimeError, match="recycled workspace"):
            first.backward()


class TestFusedMatchesGraph:
    def test_identical_initialization(self):
        graph, fused = _pair(5, 7, 2)
        np.testing.assert_array_equal(graph.get_flat(), fused.get_flat())

    @pytest.mark.parametrize("return_sequence", [False, True])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_forward_and_backward_parity(self, rng, layers, return_sequence):
        graph, fused = _pair(4, 6, layers)
        x = rng.normal(size=(3, 5, 4))

        results = []
        for lstm in (graph, fused):
            xt = Tensor(x, requires_grad=True)
            out = lstm(xt, return_sequence=return_sequence)
            lstm.zero_grad()
            ops.sum_(ops.mul(out, out)).backward()
            results.append((out.data.copy(), lstm.flat_grad(), xt.grad.copy()))

        (out_g, grad_g, dx_g), (out_f, grad_f, dx_f) = results
        np.testing.assert_allclose(out_f, out_g, rtol=0, atol=GRAD_TOL)
        np.testing.assert_allclose(grad_f, grad_g, rtol=0, atol=GRAD_TOL)
        np.testing.assert_allclose(dx_f, dx_g, rtol=0, atol=GRAD_TOL)

    def test_workspace_reuse_across_batch_shapes(self, rng):
        """The tape re-keys cleanly when the minibatch shape alternates."""
        graph, fused = _pair(3, 5, 2)
        for batch, time in [(4, 6), (2, 6), (4, 6), (4, 3)]:
            x = rng.normal(size=(batch, time, 3))
            graph.zero_grad()
            fused.zero_grad()
            ops.sum_(graph(Tensor(x))).backward()
            ops.sum_(fused(Tensor(x))).backward()
            np.testing.assert_allclose(
                fused.flat_grad(), graph.flat_grad(), rtol=0, atol=GRAD_TOL
            )

    def test_repeated_solve_loop_stays_consistent(self, rng):
        """Many forward/backward cycles through one workspace drift nowhere:
        grads of identical inputs are identical on the 1st and 50th pass."""
        _, fused = _pair(3, 4, 1)
        x = rng.normal(size=(2, 4, 3))
        fused.zero_grad()
        ops.sum_(fused(Tensor(x))).backward()
        reference = fused.flat_grad().copy()
        for _ in range(49):
            fused.zero_grad()
            ops.sum_(fused(Tensor(x))).backward()
        np.testing.assert_array_equal(fused.flat_grad(), reference)

    def test_flat_state_transfers_between_backends(self, rng):
        graph, fused = _pair(4, 5, 2, seed=11)
        w = rng.normal(size=graph.num_parameters())
        graph.set_flat(w)
        fused.set_flat(w)
        x = rng.normal(size=(2, 4, 4))
        np.testing.assert_allclose(
            fused(Tensor(x)).data, graph(Tensor(x)).data, rtol=0, atol=GRAD_TOL
        )


class TestEvaluationBuildsNoTape:
    """A forward with no gradient to compute takes no tape; every tape that
    is built runs a backward, so it is built with its backward scratch."""

    T, B, IN, H, LAYERS = 6, 5, 3, 4, 2

    def _triples(self, rng):
        lstm = LSTM(self.IN, self.H, self.LAYERS, rng)
        return [(c.w_x, c.w_h, c.bias) for c in lstm.cells]

    def test_constant_parameters_take_no_tape(self, rng):
        triples = self._triples(rng)
        frozen = [tuple(p.detach() for p in triple) for triple in triples]
        x = rng.normal(size=(self.B, self.T, self.IN))
        ws = FusedLSTMWorkspace()
        out = fused_lstm(x, frozen, workspace=ws)
        assert ws._tapes == {} and ws.generation == 0
        assert np.array_equal(out.data, fused_lstm(x, triples, workspace=ws).data)

    def test_no_grad_takes_no_tape_and_leaves_a_pending_backward_intact(self, rng):
        triples = self._triples(rng)
        x = rng.normal(size=(self.B, self.T, self.IN))
        ws = FusedLSTMWorkspace()
        pending = ops.sum_(fused_lstm(x, triples, workspace=ws))
        (tape,) = ws._tapes.values()
        with no_grad():
            for batch in (1, 2, 9):
                out = fused_lstm(x[:1].repeat(batch, axis=0), triples, workspace=ws)
                assert out._parents == () and out._backward_fn is None
        assert list(ws._tapes.values()) == [tape] and ws.generation == 1
        pending.backward()  # the tape was not recycled
        assert all(p.grad is not None for triple in triples for p in triple)

    def test_every_tape_carries_its_backward_scratch(self):
        T, B, H = self.T, self.B, self.H
        tape = FusedLSTMWorkspace().acquire(T, B, self.IN, H, self.LAYERS)
        assert tape.bwd.dgates.shape == (T, B, 4 * H)
        assert tape.bwd.dx.shape == (T, B, self.IN)
        st = StackedLSTMWorkspace().acquire(3, T, B, self.IN, H, 1)
        assert st.bwd.dx.shape == (3, T, B, self.IN)

    @pytest.mark.parametrize("name", ["charlstm", "sentlstm"])
    def test_model_evaluation_adds_no_tape(self, rng, name):
        model = MODELS[name]()
        X, y = rng.integers(12, size=(6, 9)), rng.integers(2, size=6)
        model.loss_and_gradient(X, y)  # a solve step: one tape
        tapes = dict(model.module.lstm._workspace._tapes)
        for rows in (1, 6, 40):
            Xe = rng.integers(12, size=(rows, 9))
            model.loss(Xe, rng.integers(2, size=rows))
            model.predict(Xe)
            model.accuracy(Xe, rng.integers(2, size=rows))
        assert model.module.lstm._workspace._tapes == tapes


class TestFullBatchGradientsDoNotPinTapes:
    """γ measurement, dissimilarity and FedDane take a full-device gradient:
    one new call shape per device size, which the workspace must not keep."""

    def test_every_mini_batch_shape_is_kept(self, rng):
        """A batch of 10 and every shorter last batch: cycled, never rebuilt."""
        model = MODELS["charlstm"]()
        ws = model.module.lstm._workspace
        X, y = rng.integers(12, size=(10, 9)), rng.integers(12, size=10)
        for n in range(1, 11):
            model.gradient(X[:n], y[:n])
        tapes = {key: id(tape) for key, tape in ws._tapes.items()}
        for n in (10, 3, 10, 7, 10, 1, 10, 9):
            model.gradient(X[:n], y[:n])
        assert len(tapes) == 10
        assert {key: id(tape) for key, tape in ws._tapes.items()} == tapes

    def test_least_recently_used_tapes_beyond_the_budget_are_evicted(
        self, rng, monkeypatch
    ):
        model = MODELS["charlstm"]()
        fresh = MODELS["charlstm"]()  # built before the budget shrinks
        ws = model.module.lstm._workspace
        X, y = rng.integers(12, size=(60, 9)), rng.integers(12, size=60)
        model.gradient(X[:10], y[:10])
        batch_bytes = ws._tapes[((), 9, 10, 3, 8, 2)].nbytes
        monkeypatch.setattr(functional, "TAPE_BYTES", 5 * batch_bytes)
        for n in range(11, 60, 4):  # one full device per size, growing
            got = model.gradient(X[:n], y[:n])
            assert np.array_equal(got, fresh.gradient(X[:n], y[:n]))
            current = ws._tapes[((), 9, n, 3, 8, 2)]
            held = sum(t.nbytes for t in ws._tapes.values())
            assert held <= max(functional.TAPE_BYTES, current.nbytes)
            model.gradient(X[:10], y[:10])  # the solve's next step
            assert ((), 9, 10, 3, 8, 2) in ws._tapes
        assert len(ws._tapes) < 5
        # An evicted shape is rebuilt on demand, to the same bits.
        assert np.array_equal(model.gradient(X[:11], y[:11]), fresh.gradient(X[:11], y[:11]))


def _used(model, vocab, rng, stacked):
    """Run a solve step, an evaluation block and (optionally) a cohort step."""
    X, y = rng.integers(vocab, size=(6, 9)), rng.integers(2, size=6)
    model.loss_and_gradient(X, y)
    model.loss(rng.integers(vocab, size=(40, 9)), rng.integers(2, size=40))
    if stacked:
        W = np.tile(model.get_params(), (3, 1))
        model.stacked_gradient(
            W, rng.integers(vocab, size=(3, 6, 9)), rng.integers(2, size=(3, 6)),
            None, np.full(3, 6.0),
        )
    return X, y


MODELS = {
    "charlstm": lambda: CharLSTM(vocab_size=12, embed_dim=3, hidden=8, num_layers=2),
    "sentlstm": lambda: SentimentLSTM(vocab_size=12, embed_dim=3, hidden=8, num_layers=2),
    "sentlstm-trainable": lambda: SentimentLSTM(
        vocab_size=12, embed_dim=3, hidden=8, num_layers=2, trainable_embedding=True
    ),
}


class TestWorkspacesDoNotTravel:
    """Tapes are scratch: a copied workspace starts empty.

    With per-step views cached in the tape this is a correctness matter —
    a copied tape's views would alias the *original's* buffers (deepcopy)
    or nothing (pickle) — as well as a 200x size one.
    """

    @pytest.mark.parametrize(
        "make_ws,shape",
        [(FusedLSTMWorkspace, (4, 3, 2, 5, 1)), (StackedLSTMWorkspace, (2, 4, 3, 2, 5, 1))],
    )
    def test_copies_of_a_used_workspace_are_empty(self, make_ws, shape):
        ws = make_ws()
        ws.acquire(*shape)
        assert len(ws._tapes) == 1
        for clone in (pickle.loads(pickle.dumps(ws)), copy.deepcopy(ws)):
            assert type(clone) is make_ws and clone._tapes == {}
            clone.acquire(*shape)
        assert len(ws._tapes) == 1

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_used_model_round_trips_with_bitwise_gradients(self, rng, name, stacked):
        fresh_size = len(pickle.dumps(MODELS[name]()))
        model = MODELS[name]()
        X, y = _used(model, 12, rng, stacked)
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
