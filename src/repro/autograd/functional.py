"""Composite differentiable functions built on the primitive ops.

These are the loss functions and fused operations used by the model zoo.
Fusing softmax with cross-entropy keeps the backward pass numerically
stable and cheap (the classic ``softmax - onehot`` gradient).

:func:`fused_lstm` is the hand-derived forward/backward for the unrolled
multi-layer LSTM — the hot path of the paper's Shakespeare and Sent140
workloads.  It participates in the autograd graph like any other op (one
node for the whole unroll), but internally runs pure NumPy kernels over
preallocated workspaces instead of building ~10 graph nodes per timestep.
Its layer and step loops (``_lstm_forward`` / ``_lstm_backward``) are also
the cohort path's multi-client kernels (:mod:`repro.autograd.stacked_lstm`),
run over a tape with a leading client axis.  The graph-mode cell in
:mod:`repro.nn.recurrent` remains the correctness oracle: the test suite
checks the fused gradients against it and against finite differences.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from . import ops
from .tensor import Tensor, as_tensor


def softmax_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    reduction: str = "mean",
    sample_weight: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy between ``softmax(logits)`` and integer ``labels``.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` unnormalized scores.
    labels:
        ``(batch,)`` integer class indices.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    sample_weight:
        Optional per-sample weights, applied before the reduction.

    Returns
    -------
    Tensor
        Scalar loss (or per-sample loss vector when ``reduction="none"``).
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )

    batch = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    per_sample = -log_probs[np.arange(batch), labels]
    if sample_weight is not None:
        per_sample = per_sample * sample_weight

    if reduction == "mean":
        out_data = per_sample.mean()
    elif reduction == "sum":
        out_data = per_sample.sum()
    elif reduction == "none":
        out_data = per_sample
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        base = np.exp(log_probs)  # the softmax
        base[np.arange(batch), labels] -= 1.0
        if sample_weight is not None:
            base *= np.asarray(sample_weight)[:, None]
        if reduction == "mean":
            g = base * (grad / batch)
        elif reduction == "sum":
            g = base * grad
        else:  # per-sample
            g = base * np.asarray(grad)[:, None]
        logits._accumulate(g)

    if ops._needs_grad(logits):
        return Tensor(out_data, _parents=(logits,), _backward_fn=backward)
    return Tensor(out_data)


def binary_cross_entropy_with_logits(
    logits: Tensor, labels: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Binary cross-entropy on raw logits, numerically stable.

    Uses the identity
    ``BCE(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))``.

    Parameters
    ----------
    logits:
        Arbitrary-shape raw scores.
    labels:
        Same-shape array of {0, 1} targets (floats allowed).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    logits = as_tensor(logits)
    y = np.asarray(labels, dtype=np.float64)
    x = logits.data
    per_elem = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    if reduction == "mean":
        out_data = per_elem.mean()
    elif reduction == "sum":
        out_data = per_elem.sum()
    elif reduction == "none":
        out_data = per_elem
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray) -> None:
        sigma = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        )
        base = sigma - y
        if reduction == "mean":
            g = base * (grad / per_elem.size)
        elif reduction == "sum":
            g = base * grad
        else:
            g = base * np.asarray(grad)
        logits._accumulate(g)

    if ops._needs_grad(logits):
        return Tensor(out_data, _parents=(logits,), _backward_fn=backward)
    return Tensor(out_data)


def mse_loss(pred: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``pred`` and a constant ``target``."""
    pred = as_tensor(pred)
    diff = ops.sub(pred, Tensor(np.asarray(target, dtype=np.float64)))
    sq = ops.mul(diff, diff)
    if reduction == "mean":
        return ops.mean(sq)
    if reduction == "sum":
        return ops.sum_(sq)
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


def l2_norm_squared(t: Tensor) -> Tensor:
    """Squared Euclidean norm ``sum(t**2)`` of a tensor of any shape."""
    t = as_tensor(t)
    return ops.sum_(ops.mul(t, t))


#: Bytes of tapes a :class:`FusedLSTMWorkspace` keeps.  Mini-batch solves
#: cycle through at most ``batch_size`` shapes (the batch, and each device's
#: shorter last batch): 3 MB for the benchmark's batch of 10, 68 MB for all
#: ten shapes of the paper's Shakespeare model.  A full-batch gradient (γ
#: measurement, dissimilarity, FedDane's corrections) takes one
#: ``T x n_k x 4H`` tape per device size, 4.3 GB for a mean-sized
#: Shakespeare device, which only the calls right after it reuse.
TAPE_BYTES = 256 * 2**20


def _steps(block: np.ndarray, lead: tuple) -> list:
    """Per-timestep views of a ``lead + (T, ...)`` block."""
    return list(np.moveaxis(block, len(lead), 0))


def _step_views(h_prev, g, c_prev, c_next, tc, h_next) -> tuple:
    """One forward step's views: state in, the gate block with its
    [i, f, o] / i / f / o / g columns, cell in and out, tanh(cell out),
    state out."""
    H = h_prev.shape[-1]
    return (
        h_prev, g, g[..., : 3 * H], g[..., :H], g[..., H : 2 * H],
        g[..., 2 * H : 3 * H], g[..., 3 * H :], c_prev, c_next, tc, h_next,
    )


def _gate_order(H: int) -> Tuple[np.ndarray, np.ndarray]:
    """The kernel's gate column permutation and sigmoid prescale.

    The permutation [i, f, g, o] -> [i, f, o, g] swaps the last two blocks,
    an involution, so the same index array maps external->internal and
    back.  ``sigmoid(x) = (tanh(x/2) + 1) / 2``, finite for any x: halving
    the [i, f, o] columns and multiplying g by 1.0 (both exact) lets one
    tanh run over the whole contiguous gate block.
    """
    perm = np.concatenate(
        [np.arange(2 * H), np.arange(3 * H, 4 * H), np.arange(2 * H, 3 * H)]
    )
    return perm, np.repeat([0.5, 1.0], [3 * H, H])


class _LayerTape:
    """Saved activations, permuted parameters and step views of one layer."""

    def __init__(self, lead: tuple, T: int, B: int, in_size: int, H: int) -> None:
        # Row 0 of ``h``/``c`` along the time axis is the zero initial state
        # (allocated zero, never written): step ``t`` enters at row ``t`` and
        # leaves at row ``t + 1``.
        self.h = np.zeros(lead + (T + 1, B, H))
        self.c = np.zeros(lead + (T + 1, B, H))
        self.tanh_c = np.empty(lead + (T, B, H))
        # Post-nonlinearity gate values, and the parameters as last taken by a
        # forward, in the kernel's internal column order [i, f, o, g].
        self.gates = np.empty(lead + (T, B, 4 * H))
        self.w_x_p = np.empty(lead + (in_size, 4 * H))
        self.w_h_p = np.empty(lead + (H, 4 * H))
        self.b_p = np.empty(lead + (4 * H,))
        # The (T*B, ·) stacks the per-layer GEMMs read.  Of the (T+1)*B rows
        # of ``h``, the last T*B are the output sequence and the first T*B
        # the states entering each step: contiguous per client in either
        # layout, so neither needs a copy.
        rows = self.h.reshape(lead + ((T + 1) * B, H))
        self.h_in_flat = rows[..., : T * B, :]
        self.h_out_flat = rows[..., B:, :]
        self.gates_flat = self.gates.reshape(lead + (T * B, 4 * H))
        self.b_rows = self.b_p[..., None, :]  # broadcasts over gates_flat
        h, c, tc, g = (
            _steps(a, lead) for a in (self.h, self.c, self.tanh_c, self.gates)
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

    def __init__(self, tape: "_LSTMTape") -> None:
        lead, T, B, H = tape.lead, tape.T, tape.B, tape.H

        def block(width: int) -> np.ndarray:
            return np.empty(lead + (T, B, width))

        def flat(a: np.ndarray) -> np.ndarray:
            return a.reshape(lead + (T * B, -1))

        self.dh = np.empty(lead + (B, H))
        self.dc = np.empty(lead + (B, H))
        self.tmp3h = np.empty(lead + (B, 3 * H))
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
        dg = _steps(self.dgates, lead)
        top = len(tape.layers) - 1
        for l, lt in enumerate(tape.layers):
            shapes = (lt.w_x_p.shape, lt.w_h_p.shape, lt.b_p.shape)
            self.grads_p.append(tuple(np.empty(s) for s in shapes))
            self.grads.append(tuple(np.empty(s) for s in shapes))
            dseq_in, dseq_out = self.dseq[(top - l) % 2], self.dseq[(top - l + 1) % 2]
            self.below.append((dseq_out, flat(dseq_out)))
            dseq, fc = _steps(dseq_in, lead), _steps(dseq_out, lead)
            g, c, tc = (_steps(a, lead) for a in (lt.gates, lt.c, lt.tanh_c))
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

    ``lead`` is ``()`` for :func:`fused_lstm`, whose blocks are time-major
    ``(T, B, ·)``, and ``(K,)`` for the stacked kernels
    (:mod:`repro.autograd.stacked_lstm`), whose blocks are ``(K, T, B, ·)``.
    The layer loops below slice nothing themselves: they run over views
    built here once per shape, which is all that tells the layouts apart.
    """

    def __init__(
        self, lead: tuple, T: int, B: int, in_size: int, H: int, layers: int
    ) -> None:
        self.lead, self.T, self.B, self.in_size, self.H = lead, T, B, in_size, H
        self.x = np.empty(lead + (T, B, in_size))  # the input, kernel layout
        self.x_flat = self.x.reshape(lead + (T * B, in_size))
        self.layers = [
            _LayerTape(lead, T, B, in_size if l == 0 else H, H)
            for l in range(layers)
        ]
        self.tmp4h = np.empty(lead + (B, 4 * H))
        self.tmph = np.empty(lead + (B, H))
        self.perm, self.prescale = _gate_order(H)
        # The recurrent product is one dgemm per client either way; for a
        # single client np.dot reaches it with less dispatch than matmul.
        self.gemm = np.matmul if lead else np.dot
        self.bwd = _BackwardScratch(self)
        # The blocks that scale with T x B, which is nearly all of a tape.
        self.nbytes = sum(
            a.nbytes
            for a in (self.x, self.bwd.dgates, self.bwd.dx, *self.bwd.dseq)
            + tuple(a for lt in self.layers for a in (lt.h, lt.c, lt.tanh_c, lt.gates))
        )


class _TapeCache:
    """Tapes keyed by call shape, allocated on first use.

    Tapes are scratch, and their cached views would stop aliasing their
    buffers across a copy: a pickled or deep-copied cache starts empty.
    """

    def __init__(self) -> None:
        self._tapes: dict = {}

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_tapes": {}}


class FusedLSTMWorkspace(_TapeCache):
    """Reusable activation tape for :func:`fused_lstm`.

    One workspace amortizes all per-call allocation across the minibatches
    and local epochs of a solve: buffers are keyed by the call shape
    ``(T, B, in, hidden, layers)`` and reused whenever it recurs (mini-batch
    shapes repeat within an epoch and across solves).  Only a call with a
    gradient to compute takes a tape, and the workspace keeps the most
    recently used tapes up to :data:`TAPE_BYTES` (or just the one in use,
    if that alone is larger).

    A workspace's buffers are *live* between a forward call and its
    backward: running another forward through the same workspace overwrites
    the tape, so a still-pending backward from the earlier call would read
    garbage.  :func:`fused_lstm` stamps each forward with a generation
    counter and the backward closure refuses to run against a recycled
    tape rather than silently corrupting gradients.
    """

    def __init__(self) -> None:
        super().__init__()
        self.generation = 0

    def acquire(
        self, T: int, B: int, in_size: int, hidden: int, layers: int
    ) -> _LSTMTape:
        """Buffers for one call shape, allocating on first use and evicting
        least recently used shapes beyond :data:`TAPE_BYTES`."""
        self.generation += 1
        key = ((), T, B, in_size, hidden, layers)
        tape = self._tapes.pop(key, None) or _LSTMTape(*key)
        self._tapes[key] = tape  # most recently used last
        held = sum(t.nbytes for t in self._tapes.values())
        for old in list(self._tapes):
            if held <= TAPE_BYTES or old == key:
                break
            held -= self._tapes.pop(old).nbytes
        return tape


def _lstm_layer(
    inp_flat, gates_flat, steps, w_x_p, w_h_p, b_rows, prescale, gemm, tmp4h, tmph
) -> None:
    """One layer over a run of steps: the forward arithmetic, in one copy.

    The input contribution and bias of every step in ``steps`` are one GEMM
    and one add into ``gates_flat``; then the recurrence runs over the step
    views in time order, with ``gemm`` as the recurrent product and
    ``tmp4h`` / ``tmph`` as scratch.  Parameters are in the internal
    [i, f, o, g] layout.
    """
    np.matmul(inp_flat, w_x_p, out=gates_flat)
    gates_flat += b_rows
    for (h_prev, g_t, ifo, i_g, f_g, o_g, g_g,
         c_prev, c_next, tc, h_next) in steps:
        gemm(h_prev, w_h_p, out=tmp4h)
        g_t += tmp4h
        g_t *= prescale  # x/2 under the sigmoids, x under the tanh
        np.tanh(g_t, out=g_t)
        ifo += 1.0  # sigmoid(x) = (tanh(x/2) + 1) / 2
        ifo *= 0.5
        np.multiply(f_g, c_prev, out=c_next)
        np.multiply(i_g, g_g, out=tmph)
        c_next += tmph
        np.tanh(c_next, out=tc)
        np.multiply(o_g, tc, out=h_next)


def _lstm_forward(tape: _LSTMTape, params) -> None:
    """Every layer's forward over ``tape.x``, activations left in the tape.

    ``params`` is one ``(w_x, w_h, b)`` ndarray triple per layer in the
    external [i, f, g, o] layout, each with the tape's leading axes.
    """
    perm, inp_flat = tape.perm, tape.x_flat
    scratch = (tape.prescale, tape.gemm, tape.tmp4h, tape.tmph)
    for lt, (w_x, w_h, b) in zip(tape.layers, params):
        np.take(w_x, perm, axis=-1, out=lt.w_x_p)
        np.take(w_h, perm, axis=-1, out=lt.w_h_p)
        np.take(b, perm, axis=-1, out=lt.b_p)
        _lstm_layer(
            inp_flat, lt.gates_flat, lt.steps, lt.w_x_p, lt.w_h_p, lt.b_rows, *scratch
        )
        inp_flat = lt.h_out_flat


def _lstm_rolling_forward(x: np.ndarray, params, return_sequence: bool) -> np.ndarray:
    """:func:`fused_lstm`'s output with no tape, for calls with no gradient.

    Runs time chunks of ``C`` steps through every layer in turn, each layer
    by :func:`_lstm_layer`.  It holds, per layer, a ``(C, B, H)`` block of
    states and one ``(B, H)`` cell (updated in place), and one ``(C, B, 4H)``
    gate block, input chunk and step scratch that the layers share.  The
    values are the tape forward's bits: elementwise ops do not depend on
    which rows they run on, and the rows of a GEMM over any block of two or
    more rows equal the same rows of the tape's whole-sequence GEMM
    (``tests/test_nn_fused_lstm_oracle.py`` pins this).  A one-row product
    goes through gemv and does not, so a chunk is one step when ``B >= 2``
    and the whole sequence when ``B = 1`` (chunks of several steps measured
    no faster at widths 8–256).
    """
    B, T, in_size = x.shape
    H = params[0][1].shape[0]
    C = T if B == 1 else 1
    perm, prescale = _gate_order(H)
    permuted = [tuple(np.take(p, perm, axis=-1) for p in triple) for triple in params]
    x_chunk = np.empty((C, B, in_size))
    gates = np.empty((C, B, 4 * H))
    scratch = (prescale, np.dot, np.empty((B, 4 * H)), np.empty((B, H)))
    tc = np.empty((B, H))
    hs, steps = [], []
    for _ in params:
        h, c = np.zeros((C, B, H)), np.zeros((B, H))
        # Step j enters with state h[j - 1]: for j = 0 that is h[C - 1], the
        # previous chunk's last state (zero before the first).
        hs.append(h)
        steps.append([_step_views(h[j - 1], gates[j], c, c, tc, h[j]) for j in range(C)])
    out = np.empty((B, T, H)) if return_sequence else hs[-1][-1]
    for t0 in range(0, T, C):
        np.copyto(x_chunk, x[:, t0 : t0 + C].transpose(1, 0, 2))
        inp_flat = x_chunk.reshape(C * B, in_size)
        for (w_x_p, w_h_p, b_p), h, layer_steps in zip(permuted, hs, steps):
            _lstm_layer(
                inp_flat, gates.reshape(C * B, 4 * H), layer_steps,
                w_x_p, w_h_p, b_p, *scratch,
            )
            inp_flat = h.reshape(C * B, H)
        if return_sequence:
            out[:, t0 : t0 + C] = hs[-1].transpose(1, 0, 2)
    return out


def _lstm_backward(tape: _LSTMTape, need_dx: bool) -> list:
    """Reverse sweep of the forward last run through ``tape``.

    Reads the gradient w.r.t. the top layer's output sequence from
    ``tape.bwd.dseq[0]``; returns ``tape.bwd.grads``, one ``(d_wx, d_wh,
    d_b)`` triple per layer in the external layout (valid until the next
    call), and leaves the input gradient in ``tape.bwd.dx`` when ``need_dx``.
    """
    bw = tape.bwd
    H, perm, gemm, tmp = tape.H, tape.perm, tape.gemm, tape.tmph
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
            gemm(dg_t, w_h_pT, out=dh)
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


def fused_lstm(
    x,
    layers: Sequence[Tuple[Tensor, Tensor, Tensor]],
    workspace: Optional[FusedLSTMWorkspace] = None,
    return_sequence: bool = False,
) -> Tensor:
    """Unrolled multi-layer LSTM with hand-derived forward/backward.

    Semantically identical to running :class:`repro.nn.recurrent.LSTM`
    (zero initial state, gate layout ``[input, forget, cell, output]``,
    same association order of the pre-activation sums), but executed as
    fused NumPy kernels: the input contribution ``X @ W_x`` of all ``T``
    steps is one GEMM per layer, each step touches a single
    ``(batch, 4*hidden)`` gate buffer through views built once per call
    shape, and the backward sweep stores per-step gate gradients so
    ``dW_x`` / ``dW_h`` / ``db`` reduce to one fused GEMM each over the
    ``(T*batch, ·)`` stack.  Each step does only the work that depends on
    the recurrent state: the backward's other factors are computed for
    all ``T`` steps at once before the sweep.  A call with no gradient to
    compute (constant parameters and input, or inside
    :func:`~repro.autograd.no_grad`) takes no tape: it steps a rolling
    forward with the same arithmetic and returns the same bits.

    Internally the kernel permutes the gate columns to ``[i, f, o, g]`` (a
    per-column relabeling, so every value is bit-identical to the external
    ``[i, f, g, o]`` layout): the three sigmoid gates then form one
    contiguous block, so a step's sigmoids and its ``tanh`` are one
    ``tanh`` over the whole gate buffer, and the sigmoid derivative in
    backward is one slice operation instead of one per gate.  Parameters
    and their gradients cross the boundary through ``np.take`` with
    preallocated buffers; the swap is its own inverse.

    Parameters
    ----------
    x:
        ``(batch, time, in_size)`` input — an ndarray or a Tensor (e.g. an
        embedding lookup); gradients propagate into a Tensor input that
        participates in the graph.
    layers:
        One ``(w_x, w_h, bias)`` parameter triple per layer, with shapes
        ``(in, 4H)`` / ``(H, 4H)`` / ``(4H,)`` — exactly the parameters of
        :class:`repro.nn.recurrent.LSTMCell`.
    workspace:
        Activation tape reused across calls (see
        :class:`FusedLSTMWorkspace`); a private one is allocated per call
        when omitted.
    return_sequence:
        Return all top-layer hidden states ``(batch, time, hidden)``
        instead of the final state ``(batch, hidden)``.

    Returns
    -------
    Tensor
        The top layer's final hidden state (or full sequence), wired into
        the autograd graph as a single node.
    """
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

    params = [(w_x.data, w_h.data, b.data) for w_x, w_h, b in layers]
    x_in_graph = ops._needs_grad(x_t)
    parents = [p for triple in layers for p in triple]
    if x_in_graph:
        parents.append(x_t)
    if not ops._needs_grad(*parents):
        return Tensor(_lstm_rolling_forward(xd, params, return_sequence))

    ws = workspace if workspace is not None else FusedLSTMWorkspace()
    tape = ws.acquire(T, B, in_size, H, len(layers))
    generation = ws.generation

    np.copyto(tape.x, xd.transpose(1, 0, 2))  # time-major
    _lstm_forward(tape, params)
    top_h = tape.layers[-1].h
    if return_sequence:
        out_data = np.ascontiguousarray(top_h[1:].transpose(1, 0, 2))
    else:
        out_data = top_h[T].copy()

    def backward(grad: np.ndarray) -> None:
        if ws.generation != generation:
            raise RuntimeError(
                "fused_lstm backward ran against a recycled workspace: "
                "another forward reused the activation tape before this "
                "node's backward pass (run backward before the next forward, "
                "or give each concurrent graph its own workspace)"
            )
        bw = tape.bwd
        dseq = bw.dseq[0]
        if return_sequence:
            np.copyto(dseq, np.asarray(grad).transpose(1, 0, 2))
        else:
            dseq.fill(0.0)
            dseq[T - 1] = grad
        grads = _lstm_backward(tape, need_dx=x_in_graph)
        for triple, layer_grads in zip(reversed(layers), reversed(grads)):
            for param, g in zip(triple, layer_grads):
                param._accumulate(g)
        if x_in_graph:
            x_t._accumulate(bw.dx.transpose(1, 0, 2))

    return Tensor(out_data, _parents=tuple(parents), _backward_fn=backward)
