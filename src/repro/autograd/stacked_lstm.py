"""Stacked multi-client fused-LSTM kernels for the cohort solve path.

:func:`~repro.autograd.functional.fused_lstm` runs *one* client's unrolled
LSTM as hand-derived NumPy kernels.  The cohort local solver
(:mod:`repro.runtime.cohort`) instead advances K clients' FedProx solves
simultaneously, each at its *own* parameter vector — so here every buffer
has a leading client axis and each GEMM is batched over it:
``(K, T*B, in) @ (K, in, 4H)`` for the input contribution,
``(K, B, H) @ (K, H, 4H)`` per step for the recurrence, and so on.

These are not a second kernel: the layer and step loops are
:mod:`repro.autograd.functional`'s own, run over a tape whose views carry
the client axis.  Hence the bit-compatibility contract: for every client
row ``k``, the operations executed on slice ``k`` are the *same*
floating-point operations, in the same order, as one :func:`fused_lstm`
forward/backward at that client's parameters — NumPy's batched ``matmul``
dispatches the identical per-slice GEMM, and all elementwise kernels are
position-independent.  The models' ``stacked_gradient`` implementations
(CharLSTM / SentimentLSTM) build on this to satisfy the cohort determinism
contract (row ``k`` equals the scalar ``gradient()`` at ``W[k]`` to
ulp-level rounding), with the graph backend kept as the gradcheck oracle.

No autograd here: the cohort path needs raw gradients against caller-owned
flat parameter rows, not a graph.  Buffers live in a
:class:`StackedLSTMWorkspace` keyed by call shape, reused across the
thousands of steps of a cohort solve.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .functional import _LSTMTape, _lstm_backward, _lstm_forward, _TapeCache


class StackedLSTMWorkspace(_TapeCache):
    """Reusable buffers for stacked LSTM calls, keyed by call shape.

    One workspace per model instance amortizes allocation across every
    step of a cohort solve; the active width K shrinks at scheduler
    segment boundaries, so only a handful of shapes ever materialize.
    """

    def acquire(
        self, K: int, T: int, B: int, in_size: int, hidden: int, layers: int
    ) -> _LSTMTape:
        """The tape for one call shape; its ``x`` is the ``(K, T, B, in)`` input."""
        return self._tape((K,), T, B, in_size, hidden, layers)


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
    dseq = st.backward_scratch().dseq[0]
    dseq.fill(0.0)
    dseq[:, st.T - 1] = dh_final
    return _lstm_backward(st, need_dx)
