"""The one LSTM training kernel: K clients' gradients, each at its own row.

Every gradient of a ``backend="fused"`` model runs here — the cohort
path's (:mod:`repro.runtime.cohort`) ``K`` lanes, a serial solve's one
row, and the full-batch gradients of γ measurement, dissimilarity and
FedDane — through the models' ``stacked_gradient``
(:mod:`repro.models._stacked_seq`).  Every buffer has a leading client
axis and each GEMM is batched over it: ``(K, T*B, in) @ (K, in, 4H)``
for the input contribution, ``(K, B, H) @ (K, H, 4H)`` per step for the
recurrence, and so on.  NumPy's batched ``matmul`` dispatches one GEMM
per client slice and every elementwise kernel is position-independent,
so row ``k`` of a cohort step and the same client's serial step (the
kernel at ``K = 1``) compute the same bits whenever their batch heights
match.

The forward's layer loop is :func:`repro.autograd.functional._lstm_layer`,
shared with :func:`~repro.autograd.fused_lstm`'s tape-free evaluation
forward.  No autograd here: the kernel takes raw gradients against
caller-owned flat parameter rows, not a graph.  Buffers are views of
one :class:`StackedLSTMWorkspace` arena, sized by the largest call shape
in use and reused across the thousands of steps of a solve.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .functional import _gate_order, _lstm_layer, _step_views

#: Bytes a :class:`StackedLSTMWorkspace` keeps.  Its arena holds one tape,
#: the largest shape in use: a mini-batch solve's batch, whose shorter last
#: batches view the same bytes.  A full-batch gradient (γ measurement,
#: dissimilarity, FedDane's corrections) takes one ``T x n_k x 4H`` tape
#: per device size, 4.3 GB for a mean-sized Shakespeare device; above this
#: cap it gets a buffer of its own, which only the calls right after it
#: reuse.
TAPE_BYTES = 256 * 2**20


def _steps(block: np.ndarray) -> list:
    """Per-timestep views of a ``(K, T, ...)`` block."""
    return list(np.moveaxis(block, 1, 0))


def _padded(shape: Tuple[int, ...]) -> int:
    """Floats a block of ``shape`` takes: whole 64-byte lines, so every
    block keeps the alignment of the buffer it is carved from."""
    return -(-math.prod(shape) // 8) * 8


class _Carver:
    """Consecutive blocks of one flat float64 buffer, from its start."""

    def __init__(self, buf: np.ndarray) -> None:
        self.buf, self.used = buf, 0

    def __call__(self, *shape: int) -> np.ndarray:
        block = self.buf[self.used : self.used + math.prod(shape)].reshape(shape)
        self.used += _padded(shape)
        return block


def _tape_floats(K, T, B, in_size, H, layers, extra=()) -> int:
    """Floats an :class:`_LSTMTape` of this shape carves, ``extra`` included."""
    seq, step = (K, T, B), (K, B)
    shapes = [seq + (in_size,), step + (4 * H,), step + (H,)]  # x, tmp4h, tmph
    for l in range(layers):
        params = [(K, in_size if l == 0 else H, 4 * H), (K, H, 4 * H), (K, 4 * H)]
        # h, c, tanh_c, gates; the permuted parameters and both gradient sets
        shapes += [(K, T + 1, B, H)] * 2 + [seq + (H,), seq + (4 * H,)] + params * 3
    # _BackwardScratch: dh, dc, tmp3h, dgates, dseq, dx
    shapes += [step + (H,)] * 2 + [step + (3 * H,), seq + (4 * H,)]
    shapes += [seq + (H,)] * 2 + [seq + (in_size,)]
    return sum(_padded(s) for s in shapes + list(extra))


class _LayerTape:
    """Saved activations, permuted parameters and step views of one layer."""

    def __init__(
        self, take: _Carver, K: int, T: int, B: int, in_size: int, H: int
    ) -> None:
        # Row 0 of ``h``/``c`` along the time axis is the zero initial state,
        # written by each forward (the arena's other tapes reuse its bytes):
        # step ``t`` enters at row ``t`` and leaves at row ``t + 1``.
        self.h = take(K, T + 1, B, H)
        self.c = take(K, T + 1, B, H)
        self.tanh_c = take(K, T, B, H)
        # Post-nonlinearity gate values, and the parameters as last taken by a
        # forward, in the kernel's internal column order [i, f, o, g].
        self.gates = take(K, T, B, 4 * H)
        self.w_x_p = take(K, in_size, 4 * H)
        self.w_h_p = take(K, H, 4 * H)
        self.b_p = take(K, 4 * H)
        # The (T*B, ·) stacks the per-layer GEMMs read.  Of the (T+1)*B rows
        # of ``h``, the last T*B are the output sequence and the first T*B
        # the states entering each step: contiguous per client in either
        # layout, so neither needs a copy.
        rows = self.h.reshape((K, (T + 1) * B, H))
        self.h_in_flat = rows[..., : T * B, :]
        self.h_out_flat = rows[..., B:, :]
        self.gates_flat = self.gates.reshape((K, T * B, 4 * H))
        self.b_rows = self.b_p[..., None, :]  # broadcasts over gates_flat
        h, c, tc, g = (
            _steps(a) for a in (self.h, self.c, self.tanh_c, self.gates)
        )
        self.steps = [
            _step_views(h[t], g[t], c[t], c[t + 1], tc[t], h[t + 1])
            for t in range(T)
        ]


class _BackwardScratch:
    """Buffers and step views only a backward pass touches.

    Built with the tape: a call with no gradient to compute takes no tape
    (see :func:`_lstm_rolling_forward`), so every tape runs a backward.
    One set serves every layer, since the layers' sweeps run in turn.
    """

    def __init__(self, tape: "_LSTMTape", take: _Carver) -> None:
        K, T, B, H = tape.K, tape.T, tape.B, tape.H

        def block(width: int) -> np.ndarray:
            return take(K, T, B, width)

        def flat(a: np.ndarray) -> np.ndarray:
            return a.reshape((K, T * B, -1))

        self.dh = take(K, B, H)
        self.dc = take(K, B, H)
        self.tmp3h = take(K, B, 3 * H)
        self.dgates = block(4 * H)
        self.dgates_flat = flat(self.dgates)
        # Gradient w.r.t. a layer's output sequence.  The top layer reads
        # dseq[0]; each layer writes the other buffer for the layer below,
        # but only once its own sweep has ended — until then that buffer is
        # free, and holds the sweep's ``fc`` factor (see _lstm_backward).
        self.dseq = [block(H), block(H)]
        self.dx = block(tape.in_size)
        self.dx_flat = flat(self.dx)
        # Per layer: parameter gradients in the internal column order
        # (``grads_p``) and the external [i, f, g, o] one (``grads``), the
        # dseq buffer the layer writes with its flat view (``below``), and
        # the sweep's step views.
        self.grads_p, self.grads, self.below, self.steps = [], [], [], []
        dg = _steps(self.dgates)
        top = len(tape.layers) - 1
        for l, lt in enumerate(tape.layers):
            shapes = (lt.w_x_p.shape, lt.w_h_p.shape, lt.b_p.shape)
            self.grads_p.append(tuple(take(*s) for s in shapes))
            self.grads.append(tuple(take(*s) for s in shapes))
            dseq_in, dseq_out = self.dseq[(top - l) % 2], self.dseq[(top - l + 1) % 2]
            self.below.append((dseq_out, flat(dseq_out)))
            dseq, fc = _steps(dseq_in), _steps(dseq_out)
            g, c, tc = (_steps(a) for a in (lt.gates, lt.c, lt.tanh_c))
            # Per step, last step first: output gradient, ``fc``, the gate
            # gradient block with its [i, f, o] / g columns, the i / f / g
            # gate values, the cell entering the step, tanh(cell leaving it).
            self.steps.append([
                (
                    dseq[t], fc[t], dg[t], dg[t][..., : 3 * H], dg[t][..., 3 * H :],
                    g[t][..., :H], g[t][..., H : 2 * H], g[t][..., 3 * H :],
                    c[t], tc[t],
                )
                for t in range(T - 1, -1, -1)
            ])


class _LSTMTape:
    """Every buffer and per-step view of one call shape.

    Every block is ``(K, T, B, ·)``: one client row per leading index,
    carved from the start of the buffer the tape is built on.  The layer
    loops below slice nothing themselves: they run over views built here
    once per shape.  ``scratch`` holds the model's own per-shape buffers
    (head, loss delta, gradient rows), carved after the tape's.
    """

    def __init__(self, buf: np.ndarray, key: tuple, scratch: dict) -> None:
        K, T, B, in_size, H, layers = self.key = key
        self.K, self.T, self.B, self.in_size, self.H = K, T, B, in_size, H
        take = _Carver(buf)
        self.x = take(K, T, B, in_size)  # the input, kernel layout
        self.x_flat = self.x.reshape((K, T * B, in_size))
        self.layers = [
            _LayerTape(take, K, T, B, in_size if l == 0 else H, H)
            for l in range(layers)
        ]
        self.tmp4h = take(K, B, 4 * H)
        self.tmph = take(K, B, H)
        self.perm, self.prescale = _gate_order(H)
        self.bwd = _BackwardScratch(self, take)
        self.scratch = {name: take(*shape) for name, shape in scratch.items()}


class StackedLSTMWorkspace:
    """One arena that the tapes of every call shape view.

    One workspace per model instance amortizes allocation across every
    step of a solve.  A tape is scratch for exactly one kernel call
    (forward, head, backward), so every shape's tape starts at the arena's
    first byte: the workspace holds the largest shape in use, not the sum
    of all.  Each shape keeps its step views, built on first use; the arena
    grows to a larger shape, and the shapes built on the old one are built
    again when next used.  A shape above :data:`TAPE_BYTES` runs on a
    buffer of its own, dropped at the next acquire of another shape.  Tapes
    are scratch, and their cached views would stop aliasing the arena
    across a copy: a pickled or deep-copied workspace starts empty.
    """

    def __init__(self) -> None:
        self._arena = np.empty(0)
        self._tapes: dict = {}  # call shape -> tape on self._arena
        self._oversized = None  # the tape above TAPE_BYTES last used

    def __reduce__(self) -> tuple:
        return (type(self), ())

    def acquire(
        self, K: int, T: int, B: int, in_size: int, hidden: int, layers: int,
        scratch: Optional[dict] = None,
    ) -> _LSTMTape:
        """The tape for one call shape; its ``x`` is the ``(K, T, B, in)``
        input and its ``scratch`` one block per ``name: shape`` entry of
        ``scratch`` (the same entries on every call of a shape).  Valid
        until the next acquire."""
        key, scratch = (K, T, B, in_size, hidden, layers), scratch or {}
        if self._oversized is not None and self._oversized.key == key:
            return self._oversized
        self._oversized = None
        tape = self._tapes.get(key)
        if tape is not None:
            return tape
        n = _tape_floats(*key, scratch.values())
        if 8 * n > TAPE_BYTES:
            self._oversized = _LSTMTape(np.empty(n), key, scratch)
            return self._oversized
        if n > self._arena.size:
            self._tapes.clear()  # their views would keep the old arena alive
            self._arena = np.empty(n)
        tape = self._tapes[key] = _LSTMTape(self._arena, key, scratch)
        return tape


def _lstm_forward(tape: _LSTMTape, params) -> None:
    """Every layer's forward over ``tape.x``, activations left in the tape.

    ``params`` is one ``(w_x, w_h, b)`` ndarray triple per layer in the
    external [i, f, g, o] layout, each with the tape's leading axes.
    """
    perm, inp_flat = tape.perm, tape.x_flat
    scratch = (tape.prescale, np.matmul, tape.tmp4h, tape.tmph)
    for lt, (w_x, w_h, b) in zip(tape.layers, params):
        lt.h[:, 0] = 0.0  # the zero initial state
        lt.c[:, 0] = 0.0
        np.take(w_x, perm, axis=-1, out=lt.w_x_p)
        np.take(w_h, perm, axis=-1, out=lt.w_h_p)
        np.take(b, perm, axis=-1, out=lt.b_p)
        _lstm_layer(
            inp_flat, lt.gates_flat, lt.steps, lt.w_x_p, lt.w_h_p, lt.b_rows, *scratch
        )
        inp_flat = lt.h_out_flat


def _lstm_backward(tape: _LSTMTape, need_dx: bool) -> list:
    """Reverse sweep of the forward last run through ``tape``.

    Reads the gradient w.r.t. the top layer's output sequence from
    ``tape.bwd.dseq[0]``; returns ``tape.bwd.grads``, one ``(d_wx, d_wh,
    d_b)`` triple per layer in the external layout (valid until the next
    call), and leaves the input gradient in ``tape.bwd.dx`` when ``need_dx``.
    """
    bw = tape.bwd
    H, perm, tmp = tape.H, tape.perm, tape.tmph
    dh, dc, dgates_flat, tmp3h = bw.dh, bw.dc, bw.dgates_flat, bw.tmp3h
    t_i, t_f, t_o = tmp3h[..., :H], tmp3h[..., H : 2 * H], tmp3h[..., 2 * H :]
    dg_ifo_all, dg_g_all = bw.dgates[..., : 3 * H], bw.dgates[..., 3 * H :]
    for l in range(len(tape.layers) - 1, -1, -1):
        lt = tape.layers[l]
        fc, dseq_below_flat = bw.below[l]
        # The factors of a step's chain rule that do not depend on the
        # recurrent state, for all T steps at once — per element the same
        # operations in the same order as computing them inside the sweep.
        # None needs memory of its own: o * (1 - tanh(c)^2) goes to the dseq
        # buffer this layer writes only after its sweep, and the derivatives
        # s * (1 - s) of [i, f, o] and 1 - g^2 go where the sweep multiplies
        # each step's gate gradients in.
        ifo_all, g_all = lt.gates[..., : 3 * H], lt.gates[..., 3 * H :]
        np.multiply(lt.tanh_c, lt.tanh_c, out=fc)
        np.subtract(1.0, fc, out=fc)
        fc *= lt.gates[..., 2 * H : 3 * H]
        np.subtract(1.0, ifo_all, out=dg_ifo_all)
        dg_ifo_all *= ifo_all
        np.multiply(g_all, g_all, out=dg_g_all)
        np.subtract(1.0, dg_g_all, out=dg_g_all)
        dh.fill(0.0)
        dc.fill(0.0)
        w_h_pT = np.swapaxes(lt.w_h_p, -1, -2)
        for (dseq_t, fc_t, dg_t, dg_ifo, dg_g,
             i_g, f_g, g_g, c_prev, tc) in bw.steps[l]:
            dh += dseq_t
            np.multiply(fc_t, dh, out=tmp)  # dc += dh * o * (1 - tanh(c)^2)
            dc += tmp
            # Loss gradients w.r.t. the three sigmoid gate *values*, times
            # the sigmoid derivative over the contiguous [i, f, o] block.
            np.multiply(dc, g_g, out=t_i)
            np.multiply(dc, c_prev, out=t_f)
            np.multiply(dh, tc, out=t_o)
            dg_ifo *= tmp3h
            dg_g *= dc  # cell candidate: dc * (1 - g^2) * i
            dg_g *= i_g
            dc *= f_g  # carry to step t-1
            np.matmul(dg_t, w_h_pT, out=dh)
        # Parameter gradients: one GEMM per matrix over the whole (T*B, ·)
        # stack instead of T rank-B updates, un-permuted to [i, f, g, o].
        d_wx_p, d_wh_p, d_b_p = bw.grads_p[l]
        inp_flat = tape.x_flat if l == 0 else tape.layers[l - 1].h_out_flat
        np.matmul(np.swapaxes(inp_flat, -1, -2), dgates_flat, out=d_wx_p)
        np.matmul(np.swapaxes(lt.h_in_flat, -1, -2), dgates_flat, out=d_wh_p)
        dgates_flat.sum(axis=-2, out=d_b_p)
        for src, dst in zip(bw.grads_p[l], bw.grads[l]):
            np.take(src, perm, axis=-1, out=dst)
        if l > 0:
            np.matmul(dgates_flat, np.swapaxes(lt.w_x_p, -1, -2), out=dseq_below_flat)
        elif need_dx:
            np.matmul(dgates_flat, np.swapaxes(lt.w_x_p, -1, -2), out=bw.dx_flat)
    return bw.grads


def stacked_lstm_forward(
    st: _LSTMTape, params: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Multi-client forward; input read from ``st.x`` (K, T, B, in).

    ``params`` is one ``(w_x, w_h, b)`` triple per layer with leading
    client axis: ``(K, in, 4H)`` / ``(K, H, 4H)`` / ``(K, 4H)``, in the
    external [i, f, g, o] gate layout.  Returns the top layer's final
    hidden state as a ``(K, B, H)`` view into the tape.
    """
    _lstm_forward(st, params)
    return st.layers[-1].h[:, st.T]


def stacked_lstm_backward(
    st: _LSTMTape, dh_final: np.ndarray, need_dx: bool = False
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Multi-client backward from a final-hidden-state gradient.

    ``dh_final`` is ``(K, B, H)``.  Per-layer gradients are returned as
    ``(d_wx, d_wh, d_b)`` triples in the external gate layout (tape
    buffers, valid until the next call); when ``need_dx`` the input
    gradient is left in ``st.bwd.dx`` as ``(K, T, B, in)``.
    """
    dseq = st.bwd.dseq[0]
    dseq.fill(0.0)
    dseq[:, st.T - 1] = dh_final
    return _lstm_backward(st, need_dx)
