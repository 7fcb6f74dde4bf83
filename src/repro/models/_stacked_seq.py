"""The LSTM models' one training kernel, and their module.

:class:`StackedSeqSolveMixin` gives CharLSTM / SentimentLSTM their
``stacked_gradient``: K clients' mini-batch gradients, each at its *own*
flat parameter row, in one pass through the batched LSTM kernels
(:mod:`repro.autograd.stacked_lstm`).  It is the only training path of a
``backend="fused"`` model: the cohort runs it on its lanes, and
``minibatch_gradients``, ``gradient`` and ``loss_and_gradient``
(:class:`~repro.models.neural.NeuralModel`) run it on the one-row view of
the iterate.

The mixin owns the glue around those kernels — flat-vector views in the
module registration order (embedding -> per-layer ``(w_x, w_h, b)`` ->
head), the embedding gather, the dense head and its backward, and the loss
delta, which each model supplies via ``_stacked_loss_delta``, written op
for op as its autograd loss's backward.  The graph backend exists as the
per-timestep gradcheck oracle, and the mixin reports that as the
capability *reason* rather than silently claiming support.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import (
    StackedLSTMWorkspace,
    Tensor,
    fused_lstm,
    stacked_lstm_backward,
    stacked_lstm_forward,
)
from ..nn.module import Module


class SeqModule(Module):
    """Embedding -> stacked LSTM -> dense head, on either LSTM backend.

    Subclasses assign ``embedding``, ``lstm`` (an :class:`repro.nn.LSTM`:
    both backends share its initialization and flat layout) and ``head``.
    The forward is the evaluation path: ``"fused"`` runs the LSTM's
    parameters through the forward-only :func:`repro.autograd.fused_lstm`,
    ``"graph"`` through the LSTM's own per-timestep graph.
    """

    def __init__(self, backend: str) -> None:
        super().__init__()
        self.fused = backend == "fused"

    def forward(self, token_ids: np.ndarray) -> Tensor:
        embedded = self.embedding(token_ids)  # (batch, time, embed_dim)
        if self.fused:
            triples = [(c.w_x, c.w_h, c.bias) for c in self.lstm.cells]
            final_hidden = fused_lstm(embedded, triples)
        else:
            final_hidden = self.lstm(embedded)  # (batch, hidden)
        return self.head(final_hidden)


class StackedSeqSolveMixin:
    """Cohort stacked-solve support for embedding -> LSTM -> Dense models.

    Host classes provide ``vocab_size`` / ``embed_dim`` / ``hidden`` /
    ``num_layers`` / ``backend`` attributes, ``_stacked_head_width`` (dense
    head output width), ``_stacked_trainable_embedding`` (whether the
    embedding table lives in the flat vector) and ``_stacked_loss_delta``
    (loss gradient w.r.t. the head scores, *before* the ``1/batch``
    scaling, replicating the autograd loss's op order, into ``ws["delta"]``
    with ``ws["col"]`` / ``ws["col2"]`` as two ``(K, B, 1)`` scratch
    columns).
    """

    @property
    def supports_stacked_local_solve(self) -> bool:
        return self.backend == "fused"

    @property
    def stacked_local_solve_reason(self) -> Optional[str]:
        if self.backend == "fused":
            return None
        return (
            "backend='graph' is the per-timestep gradcheck oracle; "
            "stacked cohort solves need the fused kernels (backend='fused')"
        )

    # ------------------------------------------------------------------ #
    # Buffer management
    # ------------------------------------------------------------------ #
    def _stacked_store(self) -> dict:
        store = getattr(self, "_stacked_solve_store", None)
        if store is None:
            store = {"lstm_ws": StackedLSTMWorkspace(), "views": None}
            self._stacked_solve_store = store
        return store

    def __getstate__(self) -> dict:
        # The store is scratch tied to this object's buffers (tapes whose
        # views alias them, a weight matrix remembered by identity): a
        # pickled or deep-copied model builds its own on first use.
        state = self.__dict__.copy()
        state.pop("_stacked_solve_store", None)
        return state

    def _stacked_flat_views(self, M: np.ndarray) -> dict:
        """Parameter-shaped views into the rows of a ``(K, n_params)`` matrix.

        Follows the module's flat packing order exactly (see
        :meth:`repro.nn.module.Module.get_flat`): embedding table when
        trainable, then ``(w_x, w_h, bias)`` per LSTM layer, then the dense
        head's weight and bias.
        """
        K, d = M.shape
        E, H = self.embed_dim, self.hidden
        off = 0

        def take(shape: Tuple[int, ...]) -> np.ndarray:
            nonlocal off
            n = int(np.prod(shape))
            view = M[:, off : off + n].reshape((K,) + shape)
            off += n
            return view

        emb = None
        if self._stacked_trainable_embedding:
            emb = take((self.vocab_size, E))
        layers = []
        for l in range(self.num_layers):
            in_size = E if l == 0 else H
            layers.append(
                (take((in_size, 4 * H)), take((H, 4 * H)), take((4 * H,)))
            )
        head_w = take((H, self._stacked_head_width))
        head_b = take((self._stacked_head_width,))
        if off != d:
            raise ValueError(
                f"flat vector has {d} entries per row, architecture needs {off}"
            )
        return {"emb": emb, "layers": layers, "head_w": head_w, "head_b": head_b}

    def _stacked_param_views(self, W: np.ndarray) -> dict:
        """Views into the cohort's weight matrix, cached by object identity.

        The cohort loop passes the *same* ``W[:width]`` slice object for
        every step of a scheduler segment, so the walk re-runs only at
        segment boundaries.
        """
        store = self._stacked_store()
        views = store["views"]
        if views is None or views["W"] is not W:
            views = self._stacked_flat_views(W)
            views["W"] = W
            store["views"] = views
        return views

    def _stacked_scratch(self, K: int, B: int, T: int, d: int):
        """The call shape's tape and the model's buffers beside it.

        The model's float buffers, the ``(K, d)`` gradient rows among them,
        are carved from the workspace's arena with the tape (see
        :meth:`stacked_gradient` for how long they hold).
        """
        H, C = self.hidden, self._stacked_head_width
        st = self._stacked_store()["lstm_ws"].acquire(
            K, T, B, self.embed_dim, H, self.num_layers,
            scratch={
                "G": (K, d), "scores": (K, B, C), "delta": (K, B, C),
                "dh": (K, B, H), "invc": (K,), "col": (K, B, 1), "col2": (K, B, 1),
            },
        )
        ws = st.scratch
        if "gv" not in ws:
            gv = self._stacked_flat_views(ws["G"])
            gv["G"] = ws["G"]
            ws.update(
                gv=gv,
                k3=np.arange(K)[:, None, None],
                k2=np.arange(K)[:, None],
                b2=np.arange(B)[None, :],
            )
        return st, ws

    # ------------------------------------------------------------------ #
    # The kernel
    # ------------------------------------------------------------------ #
    def stacked_gradient(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: Optional[np.ndarray],
        counts: np.ndarray,
    ) -> np.ndarray:
        if self.backend != "fused":
            raise NotImplementedError(
                f"{type(self).__name__}.stacked_gradient: "
                f"{self.stacked_local_solve_reason}"
            )
        X = np.asarray(X)
        y = np.asarray(y)
        K, B, T = X.shape
        st, ws = self._stacked_scratch(K, B, T, W.shape[1])
        gv = ws["gv"]
        pv = self._stacked_param_views(W)

        # Embedding gather straight into the kernel's time-major input.
        tok = X.transpose(0, 2, 1)  # (K, T, B)
        if pv["emb"] is not None:
            st.x[...] = pv["emb"][ws["k3"], tok]
        else:
            # Frozen table: shared across clients, read from the module.
            np.take(self.module.embedding.weight.data, tok, axis=0, out=st.x)

        h_final = stacked_lstm_forward(st, pv["layers"])

        # Dense head forward and the loss delta (d loss / d scores).
        scores = ws["scores"]
        np.matmul(h_final, pv["head_w"], out=scores)
        scores += pv["head_b"][:, None, :]
        np.divide(1.0, np.asarray(counts).reshape(K), out=ws["invc"])
        delta = self._stacked_loss_delta(ws, scores, y)
        delta *= ws["invc"][:, None, None]
        if mask is not None:
            delta *= mask[:, :, None]

        # Head backward, written directly into the flat gradient views.
        np.matmul(h_final.transpose(0, 2, 1), delta, out=gv["head_w"])
        delta.sum(axis=1, out=gv["head_b"])
        np.matmul(delta, pv["head_w"].transpose(0, 2, 1), out=ws["dh"])

        lstm_grads = stacked_lstm_backward(
            st, ws["dh"], need_dx=pv["emb"] is not None
        )
        for (d_wx, d_wh, d_b), (g_wx, g_wh, g_b) in zip(lstm_grads, gv["layers"]):
            np.copyto(g_wx, d_wx)
            np.copyto(g_wh, d_wh)
            np.copyto(g_b, d_b)

        if pv["emb"] is not None:
            g_emb = gv["emb"]
            g_emb.fill(0.0)
            # Same scatter-add, in the same (batch, time) iteration order,
            # as the graph's embedding backward (repro.autograd.ops).
            np.add.at(g_emb, (ws["k3"], X), st.bwd.dx.transpose(0, 2, 1, 3))
        return gv["G"]
