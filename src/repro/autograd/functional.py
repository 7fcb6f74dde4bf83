"""Composite differentiable functions built on the primitive ops.

These are the loss functions and fused operations used by the model zoo.
Fusing softmax with cross-entropy keeps the backward pass numerically
stable and cheap (the classic ``softmax - onehot`` gradient).

:func:`fused_lstm` is the unrolled multi-layer LSTM forward of the paper's
Shakespeare and Sent140 models, run as pure NumPy kernels instead of ~10
graph nodes per timestep.  It is forward-only: its layer loop
(:func:`_lstm_layer`) is also the forward of the one LSTM training kernel,
:mod:`repro.autograd.stacked_lstm`, which every gradient of a
``backend="fused"`` model runs.  The graph-mode cell in
:mod:`repro.nn.recurrent` remains the correctness oracle: the test suite
checks the kernel's gradients against it and against finite differences.
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


def _lstm_rolling_forward(x: np.ndarray, params, return_sequence: bool) -> np.ndarray:
    """:func:`fused_lstm`'s output, with no tape.

    Runs time chunks of ``C`` steps through every layer in turn, each layer
    by :func:`_lstm_layer`.  It holds, per layer, a ``(C, B, H)`` block of
    states and one ``(B, H)`` cell (updated in place), and one ``(C, B, 4H)``
    gate block, input chunk and step scratch that the layers share.  The
    values are the tape forward's bits: elementwise ops do not depend on
    which rows they run on, and the rows of a GEMM over any block of two or
    more rows equal the same rows of the training tape's whole-sequence GEMM
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


def fused_lstm(
    x,
    layers: Sequence[Tuple[Tensor, Tensor, Tensor]],
    return_sequence: bool = False,
) -> Tensor:
    """Unrolled multi-layer LSTM forward, as fused NumPy kernels.

    Semantically identical to running :class:`repro.nn.recurrent.LSTM`
    (zero initial state, gate layout ``[input, forget, cell, output]``,
    same association order of the pre-activation sums), but stepped by
    :func:`_lstm_rolling_forward`: the input contribution ``X @ W_x`` of a
    chunk of steps is one GEMM per layer and each step touches a single
    ``(batch, 4*hidden)`` gate buffer.  Internally the gate columns are
    permuted to ``[i, f, o, g]`` (a per-column relabeling, so every value
    is bit-identical to the external layout), so a step's sigmoids and its
    ``tanh`` are one ``tanh`` over the whole gate block.

    This is the evaluation forward of the ``backend="fused"`` models and
    builds no graph: their gradients come from the stacked training kernel
    (:mod:`repro.autograd.stacked_lstm`), whose forward computes the same
    bits.  A call that would need a gradient raises — run it under
    :func:`~repro.autograd.no_grad`, or use :class:`repro.nn.LSTM`.

    Parameters
    ----------
    x:
        ``(batch, time, in_size)`` input — an ndarray or a Tensor.
    layers:
        One ``(w_x, w_h, bias)`` parameter triple per layer, with shapes
        ``(in, 4H)`` / ``(H, 4H)`` / ``(4H,)`` — exactly the parameters of
        :class:`repro.nn.recurrent.LSTMCell`.
    return_sequence:
        Return all top-layer hidden states ``(batch, time, hidden)``
        instead of the final state ``(batch, hidden)``.
    """
    x_t = as_tensor(x)
    xd = x_t.data
    if xd.ndim != 3:
        raise ValueError(f"expected (batch, time, features), got {xd.shape}")
    if not layers:
        raise ValueError("fused_lstm needs at least one layer")
    in_size = xd.shape[2]
    H = layers[0][1].shape[0]
    for l, (w_x, w_h, b) in enumerate(layers):
        expect_in = in_size if l == 0 else H
        if w_x.shape != (expect_in, 4 * H) or w_h.shape != (H, 4 * H) or b.shape != (4 * H,):
            raise ValueError(
                f"layer {l}: expected shapes ({expect_in}, {4*H}) / "
                f"({H}, {4*H}) / ({4*H},), got {w_x.shape} / {w_h.shape} / {b.shape}"
            )
    if ops._needs_grad(x_t, *(p for triple in layers for p in triple)):
        raise RuntimeError(
            "fused_lstm is forward-only: run it under no_grad(), train through "
            "the stacked kernel (repro.autograd.stacked_lstm), or use nn.LSTM"
        )
    params = [(w_x.data, w_h.data, b.data) for w_x, w_h, b in layers]
    return Tensor(_lstm_rolling_forward(xd, params, return_sequence))
