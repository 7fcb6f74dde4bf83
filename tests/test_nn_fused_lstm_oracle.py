"""Bit parity of ``fused_lstm`` with the kernel it replaced.

The fused LSTM's step loops were rewritten to run over views built once per
tape shape, with one whole-block ``tanh`` per step and the backward's
state-independent factors batched over time — "the same per-element
operations in the same order", hence the same bits.  That claim is pinned
here the way ``tests/test_optim_stream.py`` pins the streamed solve: the
pre-change kernel is frozen below as the oracle, and the library's output,
every parameter gradient and the input gradient must be ``np.array_equal``
to it over the shape sweep the models and the cohort path produce.

The one thing the rewrite *assumes* about NumPy — that ``tanh`` of a strided
column slice and of its contiguous copy agree bitwise, and that ``x * 1.0``
and ``x * 0.5`` are exact — has its own test, so a SIMD-dispatch change in a
NumPy release fails with its cause named rather than as a parity diff.
"""

from typing import Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.autograd import FusedLSTMWorkspace, Tensor, fused_lstm, ops
from repro.autograd.tensor import as_tensor

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

# --------------------------------------------------------------------- #
# The oracle: the pre-change kernel, frozen.  Do not "simplify" it towards
# the library — its whole value is that it does not share code with it.
# --------------------------------------------------------------------- #
class _OracleLayerTape:
    """Saved activations and gradient scratch for one LSTM layer."""

    def __init__(self, T: int, B: int, in_size: int, hidden: int) -> None:
        H = hidden
        # Rows 0 of ``h``/``c`` hold the zero initial state, so ``h[t]`` is
        # the state *entering* step ``t`` and ``h[1:]`` the output sequence.
        self.h = np.zeros((T + 1, B, H))
        self.c = np.zeros((T + 1, B, H))
        self.tanh_c = np.empty((T, B, H))
        # Post-nonlinearity gate values in the kernel's internal column
        # order [i, f, o, g] (see ``fused_lstm``), one buffer per step.
        self.gates = np.empty((T, B, 4 * H))
        # Internally-permuted parameter copies and gradient scratch: ``*_p``
        # buffers hold the [i, f, o, g] layout, the others the external
        # [i, f, g, o] layout accumulated into the parameter tensors.
        self.w_x_p = np.empty((in_size, 4 * H))
        self.w_h_p = np.empty((H, 4 * H))
        self.b_p = np.empty(4 * H)
        self.d_wx_p = np.empty((in_size, 4 * H))
        self.d_wh_p = np.empty((H, 4 * H))
        self.d_b_p = np.empty(4 * H)
        self.d_wx = np.empty((in_size, 4 * H))
        self.d_wh = np.empty((H, 4 * H))
        self.d_b = np.empty(4 * H)


class OracleWorkspace:
    """Reusable activation tape for ``oracle_fused_lstm``.

    One workspace amortizes all per-call allocation across the minibatches
    and local epochs of a solve: buffers are keyed by the call shape
    ``(T, B, in, hidden, layers)`` and reused whenever it recurs (mini-batch
    shapes repeat within an epoch; evaluation blocks repeat across rounds).

    A workspace's buffers are *live* between a forward call and its
    backward: running another forward through the same workspace overwrites
    the tape, so a still-pending backward from the earlier call would read
    garbage.  ``oracle_fused_lstm`` stamps each forward with a generation
    counter and the backward closure refuses to run against a recycled
    tape rather than silently corrupting gradients.
    """

    def __init__(self) -> None:
        self._tapes: dict = {}
        self.generation = 0

    def acquire(self, T: int, B: int, in_size: int, hidden: int, layers: int):
        """Buffers for one call shape, allocating on first use."""
        key = (T, B, in_size, hidden, layers)
        state = self._tapes.get(key)
        if state is None:
            H = hidden
            state = {
                "layers": [
                    _OracleLayerTape(T, B, in_size if l == 0 else H, H)
                    for l in range(layers)
                ],
                "x_tm": np.empty((T, B, in_size)),  # time-major input copy
                "tmp4h": np.empty((B, 4 * H)),
                "tmp3h": np.empty((B, 3 * H)),
                "tmph": np.empty((B, H)),
                # Column permutation [i, f, g, o] -> [i, f, o, g]: swapping
                # the last two blocks is an involution, so the same index
                # array maps external->internal and back.
                "perm": np.concatenate(
                    [
                        np.arange(2 * H),
                        np.arange(3 * H, 4 * H),
                        np.arange(2 * H, 3 * H),
                    ]
                ),
                "dh": np.empty((B, H)),
                "dc": np.empty((B, H)),
                "dgates": np.empty((T, B, 4 * H)),
                "dseq_a": np.empty((T, B, H)),
                "dseq_b": np.empty((T, B, H)),
                "dx0": np.empty((T, B, in_size)),
            }
            self._tapes[key] = state
        self.generation += 1
        return state


def _oracle_sigmoid_inplace(a: np.ndarray) -> None:
    """Numerically stable in-place logistic sigmoid via tanh.

    ``sigmoid(x) = (tanh(x/2) + 1) / 2`` is finite for any ``x`` and needs
    no temporaries, unlike the exp-based split form.
    """
    a *= 0.5
    np.tanh(a, out=a)
    a += 1.0
    a *= 0.5


def oracle_fused_lstm(
    x,
    layers: Sequence[Tuple[Tensor, Tensor, Tensor]],
    workspace: Optional[OracleWorkspace] = None,
    return_sequence: bool = False,
) -> Tensor:
    """The pre-change ``repro.autograd.fused_lstm``, body verbatim."""
    x_t = as_tensor(x)
    xd = x_t.data
    if xd.ndim != 3:
        raise ValueError(f"expected (batch, time, features), got {xd.shape}")
    if not layers:
        raise ValueError("fused_lstm needs at least one layer")
    B, T, in_size = xd.shape
    H = layers[0][1].shape[0]
    for l, (w_x, w_h, b) in enumerate(layers):
        expect_in = in_size if l == 0 else H
        if w_x.shape != (expect_in, 4 * H) or w_h.shape != (H, 4 * H) or b.shape != (4 * H,):
            raise ValueError(
                f"layer {l}: expected shapes ({expect_in}, {4*H}) / "
                f"({H}, {4*H}) / ({4*H},), got {w_x.shape} / {w_h.shape} / {b.shape}"
            )

    ws = workspace if workspace is not None else OracleWorkspace()
    st = ws.acquire(T, B, in_size, H, len(layers))
    generation = ws.generation

    # Forward --------------------------------------------------------------- #
    x_tm = st["x_tm"]
    np.copyto(x_tm, xd.transpose(1, 0, 2))
    tmp4h = st["tmp4h"]
    tmph = st["tmph"]
    perm = st["perm"]
    inp = x_tm
    for l, (w_x, w_h, b) in enumerate(layers):
        tape = st["layers"][l]
        gates, h, c = tape.gates, tape.h, tape.c
        # Parameters in the internal [i, f, o, g] column order.
        np.take(w_x.data, perm, axis=1, out=tape.w_x_p)
        np.take(w_h.data, perm, axis=1, out=tape.w_h_p)
        np.take(b.data, perm, out=tape.b_p)
        np.matmul(inp.reshape(T * B, -1), tape.w_x_p, out=gates.reshape(T * B, 4 * H))
        gates += tape.b_p  # one broadcast add for all T steps
        h[0].fill(0.0)
        c[0].fill(0.0)
        w_h_p = tape.w_h_p
        for t in range(T):
            g_t = gates[t]
            np.matmul(h[t], w_h_p, out=tmp4h)
            g_t += tmp4h
            _oracle_sigmoid_inplace(g_t[:, : 3 * H])       # input, forget, output
            np.tanh(g_t[:, 3 * H :], out=g_t[:, 3 * H :])  # cell candidate
            c_next = c[t + 1]
            np.multiply(g_t[:, H : 2 * H], c[t], out=c_next)   # f * c_prev
            np.multiply(g_t[:, :H], g_t[:, 3 * H :], out=tmph)  # i * g
            c_next += tmph
            np.tanh(c_next, out=tape.tanh_c[t])
            np.multiply(g_t[:, 2 * H : 3 * H], tape.tanh_c[t], out=h[t + 1])
        inp = h[1:]

    top = st["layers"][-1]
    if return_sequence:
        out_data = np.ascontiguousarray(top.h[1:].transpose(1, 0, 2))
    else:
        out_data = top.h[T].copy()

    x_in_graph = x_t.requires_grad or bool(x_t._parents)
    parents = [p for triple in layers for p in triple]
    if x_in_graph:
        parents.append(x_t)
    if not any(p.requires_grad or p._parents for p in parents):
        return Tensor(out_data)

    # Backward -------------------------------------------------------------- #
    def backward(grad: np.ndarray) -> None:
        if ws.generation != generation:
            raise RuntimeError(
                "fused_lstm backward ran against a recycled workspace: "
                "another forward reused the activation tape before this "
                "node's backward pass (run backward before the next forward, "
                "or give each concurrent graph its own workspace)"
            )
        dgates = st["dgates"]
        dh, dc = st["dh"], st["dc"]
        tmp = st["tmph"]
        tmp3h = st["tmp3h"]
        perm = st["perm"]
        dseq = st["dseq_a"]
        if return_sequence:
            np.copyto(dseq, np.asarray(grad).transpose(1, 0, 2))
        else:
            dseq.fill(0.0)
            dseq[T - 1] = grad
        for l in range(len(layers) - 1, -1, -1):
            w_x, w_h, b = layers[l]
            tape = st["layers"][l]
            gates, h, c, tanh_c = tape.gates, tape.h, tape.c, tape.tanh_c
            dh.fill(0.0)
            dc.fill(0.0)
            w_h_p = tape.w_h_p
            for t in range(T - 1, -1, -1):
                dh += dseq[t]
                g_t = gates[t]
                i_g = g_t[:, :H]
                f_g = g_t[:, H : 2 * H]
                o_g = g_t[:, 2 * H : 3 * H]
                g_g = g_t[:, 3 * H :]
                dg_t = dgates[t]
                # dc += dh * o * (1 - tanh(c)^2)
                np.multiply(tanh_c[t], tanh_c[t], out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                tmp *= o_g
                tmp *= dh
                dc += tmp
                # Loss gradients w.r.t. the three sigmoid gate *values*...
                np.multiply(dc, g_g, out=dg_t[:, :H])              # input
                np.multiply(dc, c[t], out=dg_t[:, H : 2 * H])      # forget
                np.multiply(dh, tanh_c[t], out=dg_t[:, 2 * H : 3 * H])  # out
                # ...through one fused sigmoid derivative s*(1-s) over the
                # contiguous [i, f, o] block.
                np.subtract(1.0, g_t[:, : 3 * H], out=tmp3h)
                tmp3h *= g_t[:, : 3 * H]
                dg_t[:, : 3 * H] *= tmp3h
                # cell gate: dc * i * (1 - g^2)
                da_g = dg_t[:, 3 * H :]
                np.multiply(g_g, g_g, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                np.multiply(dc, tmp, out=da_g)
                da_g *= i_g
                # carry to step t-1
                dc *= f_g
                np.matmul(dg_t, w_h_p.T, out=dh)
            # Fused parameter accumulation: one GEMM per matrix over the
            # whole (T*B, .) stack instead of T rank-B updates, un-permuted
            # back to the external [i, f, g, o] column order.
            inp_l = x_tm if l == 0 else st["layers"][l - 1].h[1:]
            flat_dg = dgates.reshape(T * B, 4 * H)
            np.matmul(
                inp_l.reshape(T * B, -1).T, flat_dg, out=tape.d_wx_p
            )
            np.matmul(h[:T].reshape(T * B, H).T, flat_dg, out=tape.d_wh_p)
            flat_dg.sum(axis=0, out=tape.d_b_p)
            np.take(tape.d_wx_p, perm, axis=1, out=tape.d_wx)
            np.take(tape.d_wh_p, perm, axis=1, out=tape.d_wh)
            np.take(tape.d_b_p, perm, out=tape.d_b)
            w_x._accumulate(tape.d_wx)
            w_h._accumulate(tape.d_wh)
            b._accumulate(tape.d_b)
            if l > 0:
                nxt = st["dseq_b"] if dseq is st["dseq_a"] else st["dseq_a"]
                np.matmul(flat_dg, tape.w_x_p.T, out=nxt.reshape(T * B, H))
                dseq = nxt
            elif x_in_graph:
                dx0 = st["dx0"]
                np.matmul(flat_dg, tape.w_x_p.T, out=dx0.reshape(T * B, in_size))
                x_t._accumulate(dx0.transpose(1, 0, 2))

    return Tensor(out_data, _parents=tuple(parents), _backward_fn=backward)


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
KERNELS = {
    "library": (fused_lstm, FusedLSTMWorkspace),
    "oracle": (oracle_fused_lstm, OracleWorkspace),
}


def _arrays(rng, in_size, hidden, layers):
    """Raw ``(w_x, w_h, b)`` arrays per layer, the forget-bias offset included."""
    out = []
    for l in range(layers):
        width = in_size if l == 0 else hidden
        b = rng.normal(size=4 * hidden) * 0.3
        b[hidden : 2 * hidden] += 1.0
        out.append(
            (
                rng.normal(size=(width, 4 * hidden)) * 0.4,
                rng.normal(size=(hidden, 4 * hidden)) * 0.4,
                b,
            )
        )
    return out


def _call(kernel, ws, x, arrays, return_sequence, x_in_graph, seed_grad):
    """Forward only; returns ``(loss node, output, parameter tensors, x tensor)``."""
    triples = [
        tuple(Tensor(a.copy(), requires_grad=True) for a in triple)
        for triple in arrays
    ]
    xt = Tensor(x.copy(), requires_grad=True) if x_in_graph else x.copy()
    out = kernel(xt, triples, workspace=ws, return_sequence=return_sequence)
    loss = ops.sum_(ops.mul(out, Tensor(seed_grad)))
    return loss, out.data.copy(), triples, xt


def _results(loss, out, triples, xt):
    loss.backward()
    grads = [p.grad.copy() for triple in triples for p in triple]
    dx = xt.grad.copy() if isinstance(xt, Tensor) else None
    return out, grads, dx


def _assert_same(got, want, case):
    out_g, grads_g, dx_g = got
    out_w, grads_w, dx_w = want
    assert np.array_equal(out_g, out_w), case
    assert len(grads_g) == len(grads_w)
    for i, (g, w) in enumerate(zip(grads_g, grads_w)):
        assert np.array_equal(g, w), (case, f"parameter gradient {i}")
    assert (dx_g is None) == (dx_w is None)
    if dx_w is not None:
        assert np.array_equal(dx_g, dx_w), (case, "input gradient")


def _seed_grad(rng, B, T, hidden, return_sequence):
    return rng.normal(size=(B, T, hidden) if return_sequence else (B, hidden))


class TestBitParityWithFrozenKernel:
    @pytest.mark.parametrize("return_sequence", [False, True])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("T", [1, 2, 32])
    @pytest.mark.parametrize("B", [1, 2, 7, 10])
    def test_output_and_every_gradient(self, B, T, layers, return_sequence):
        rng = np.random.default_rng(1000 * B + 10 * T + layers)
        in_size, hidden = 3, 5
        arrays = _arrays(rng, in_size, hidden, layers)
        x = rng.normal(size=(B, T, in_size))
        seed = _seed_grad(rng, B, T, hidden, return_sequence)
        for x_in_graph in (True, False):  # trainable vs frozen embedding
            both = {}
            for name, (kernel, make_ws) in KERNELS.items():
                ws = make_ws()
                # Twice through one workspace: the second call runs on
                # reused buffers (and already-built views).
                for _ in range(2):
                    both[name] = _results(
                        *_call(kernel, ws, x, arrays, return_sequence, x_in_graph, seed)
                    )
            _assert_same(
                both["library"], both["oracle"],
                (B, T, layers, return_sequence, x_in_graph),
            )

    @pytest.mark.parametrize("B", [3, 10])
    def test_benchmark_width(self, B):
        """The `charlstm_serial` model's widths: embed 8, hidden 64, 2 layers."""
        rng = np.random.default_rng(B)
        arrays = _arrays(rng, 8, 64, 2)
        x = rng.normal(size=(B, 32, 8))
        seed = _seed_grad(rng, B, 32, 64, False)
        both = {
            name: _results(*_call(kernel, make_ws(), x, arrays, False, True, seed))
            for name, (kernel, make_ws) in KERNELS.items()
        }
        _assert_same(both["library"], both["oracle"], B)

    def test_two_shapes_interleaved_through_one_workspace(self):
        rng = np.random.default_rng(5)
        arrays = _arrays(rng, 4, 6, 2)
        shapes = [(10, 32), (7, 32), (10, 32), (10, 3), (7, 32), (10, 3)]
        inputs = [
            (rng.normal(size=(B, T, 4)), _seed_grad(rng, B, T, 6, False))
            for B, T in shapes
        ]
        both = {}
        for name, (kernel, make_ws) in KERNELS.items():
            ws = make_ws()
            both[name] = [
                _results(*_call(kernel, ws, x, arrays, False, True, seed))
                for x, seed in inputs
            ]
        for shape, got, want in zip(shapes, both["library"], both["oracle"]):
            _assert_same(got, want, shape)

    def test_forward_only_calls_between_solves_do_not_disturb_the_tape(self):
        """Evaluation forwards (no backward) interleaved at another shape."""
        rng = np.random.default_rng(6)
        arrays = _arrays(rng, 4, 6, 2)
        x, x_eval = rng.normal(size=(10, 8, 4)), rng.normal(size=(25, 8, 4))
        seed = _seed_grad(rng, 10, 8, 6, False)
        both = {}
        for name, (kernel, make_ws) in KERNELS.items():
            ws = make_ws()
            outs = []
            for _ in range(2):
                outs.append(_results(*_call(kernel, ws, x, arrays, False, True, seed)))
                frozen = [tuple(Tensor(a) for a in triple) for triple in arrays]
                outs.append(kernel(x_eval, frozen, workspace=ws).data.copy())
            both[name] = outs
        for got, want in zip(both["library"], both["oracle"]):
            if isinstance(want, tuple):
                _assert_same(got, want, "solve step")
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_second_forward_before_the_first_backward_still_raises(self, name):
        kernel, make_ws = KERNELS[name]
        rng = np.random.default_rng(7)
        arrays = _arrays(rng, 3, 4, 2)
        x = rng.normal(size=(2, 5, 3))
        seed = _seed_grad(rng, 2, 5, 4, False)
        ws = make_ws()
        first = _call(kernel, ws, x, arrays, False, True, seed)
        second = _call(kernel, ws, x, arrays, False, True, seed)
        with pytest.raises(RuntimeError, match="recycled workspace"):
            first[0].backward()
        # The tape belongs to the second forward, whose backward is intact.
        fresh = _results(*_call(oracle_fused_lstm, OracleWorkspace(), x, arrays, False, True, seed))
        _assert_same(_results(*second), fresh, name)


class TestNumpyAssumptions:
    """What "one contiguous tanh over the pre-scaled block" rests on."""

    @pytest.mark.parametrize("rows,hidden", [(1, 5), (7, 5), (10, 64), (256, 64), (3, 100)])
    def test_tanh_of_a_strided_slice_equals_tanh_of_its_contiguous_copy(self, rows, hidden):
        rng = np.random.default_rng(rows * hidden)
        block = rng.normal(size=(rows, 4 * hidden)) * 6.0
        block[0, :4] = [0.0, -0.0, 750.0, -750.0]
        block.reshape(-1)[5::17] *= 1e-9  # tiny arguments too
        whole = np.tanh(block)  # one contiguous call over the block
        for lo, hi in [(0, 3 * hidden), (3 * hidden, 4 * hidden), (hidden, 2 * hidden)]:
            strided = block[:, lo:hi]
            assert not strided.flags.c_contiguous or rows == 1
            in_place = block.copy()
            np.tanh(in_place[:, lo:hi], out=in_place[:, lo:hi])
            assert np.array_equal(np.tanh(strided), whole[:, lo:hi])
            assert np.array_equal(in_place[:, lo:hi], whole[:, lo:hi])
            assert np.array_equal(np.tanh(np.ascontiguousarray(strided)), whole[:, lo:hi])

    def test_prescale_by_one_and_by_a_half_is_exact(self):
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [
                rng.normal(size=4096) * 10.0 ** rng.integers(-300, 300, size=4096),
                [0.0, -0.0, np.inf, -np.inf, np.finfo(float).tiny, 5e-324, -5e-324],
            ]
        )
        one = x * np.ones_like(x)
        assert np.array_equal(one, x) and np.array_equal(np.signbit(one), np.signbit(x))
        # Halving by a vector of 0.5 is the scalar ``x *= 0.5`` the old kernel did.
        scalar_half = x.copy()
        scalar_half *= 0.5
        vector_half = x * np.full_like(x, 0.5)
        assert np.array_equal(vector_half, scalar_half)
        assert np.array_equal(np.signbit(vector_half), np.signbit(scalar_half))
        normal = np.abs(x) >= 2 * np.finfo(float).tiny
        assert np.array_equal(vector_half[normal] * 2.0, x[normal])
