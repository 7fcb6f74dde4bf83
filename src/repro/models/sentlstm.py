"""LSTM binary sentiment classifier (Sent140 workload).

The paper's Sent140 model is: 300-d (frozen, pre-trained GloVe) token
embeddings -> 2-layer LSTM with 256 hidden units -> dense binary head over
25-token sequences.  Offline we cannot ship GloVe, so the embedding table is
randomly initialized and optionally frozen (``trainable_embedding=False``
mirrors the paper's use of fixed pre-trained vectors — see DESIGN.md §4).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, binary_cross_entropy_with_logits
from ..nn import LSTM, Dense, Embedding, FusedLSTM
from ..nn.module import Module
from ..spec import register
from ._stacked_seq import StackedSeqSolveMixin, _buf
from .base import LSTM_BACKENDS, SEQ_EVAL_BLOCK_ROWS, NeuralModel


class _SentLSTMModule(Module):
    """Embedding -> stacked LSTM -> single-logit dense head."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden: int,
        num_layers: int,
        trainable_embedding: bool,
        rng: np.random.Generator,
        backend: str = "fused",
    ) -> None:
        super().__init__()
        lstm_cls = FusedLSTM if backend == "fused" else LSTM
        self.embedding = Embedding(vocab_size, embed_dim, rng, trainable=trainable_embedding)
        self.lstm = lstm_cls(embed_dim, hidden, num_layers, rng)
        self.head = Dense(hidden, 1, rng)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        embedded = self.embedding(token_ids)
        final_hidden = self.lstm(embedded)
        return self.head(final_hidden)  # (batch, 1) raw logit


@register
class SentimentLSTM(StackedSeqSolveMixin, NeuralModel):
    """Binary sequence classifier over integer token sequences.

    Inputs ``X`` are ``(batch, time)`` integer arrays; labels ``y`` are
    {0, 1}.

    Parameters
    ----------
    vocab_size:
        Token vocabulary size.
    embed_dim:
        Embedding width (300 in the paper, with GloVe).
    hidden:
        LSTM hidden width (256 in the paper).
    num_layers:
        Stacked LSTM layers (2 in the paper).
    trainable_embedding:
        ``False`` freezes the table, mirroring the paper's fixed GloVe
        vectors.
    seed:
        Weight-initialization seed.
    backend:
        ``"fused"`` (default) for the hand-derived LSTM kernels,
        ``"graph"`` for the per-timestep autograd reference (see
        :class:`~repro.models.charlstm.CharLSTM`).
    """

    def __init__(
        self,
        vocab_size: int = 400,
        embed_dim: int = 25,
        hidden: int = 32,
        num_layers: int = 2,
        trainable_embedding: bool = False,
        seed: int = 0,
        backend: str = "fused",
    ) -> None:
        if backend not in LSTM_BACKENDS:
            raise ValueError(f"backend must be one of {LSTM_BACKENDS}, got {backend!r}")
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.num_layers = num_layers
        self.trainable_embedding = trainable_embedding
        self.backend = backend
        super().__init__(seed=seed)

    def build(self, rng: np.random.Generator) -> Module:
        return _SentLSTMModule(
            self.vocab_size,
            self.embed_dim,
            self.hidden,
            self.num_layers,
            self.trainable_embedding,
            rng,
            backend=self.backend,
        )

    @property
    def supports_stacked_eval(self) -> bool:
        """Mean BCE-with-logits stacks exactly across client batches."""
        return True

    @property
    def stacked_eval_block_rows(self) -> int:
        """Sequence-aware block: activations scale with ``time x hidden``."""
        return SEQ_EVAL_BLOCK_ROWS

    # Stacked local-solve wiring (StackedSeqSolveMixin) ------------------- #
    @property
    def _stacked_head_width(self) -> int:
        return 1

    @property
    def _stacked_trainable_embedding(self) -> bool:
        return self.trainable_embedding

    def _stacked_loss_delta(
        self, ws: dict, scores: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """BCE-with-logits gradient per row, op-for-op as the scalar loss.

        Replicates :func:`repro.autograd.binary_cross_entropy_with_logits`:
        the two-branch stable sigmoid ``where(x >= 0, 1/(1+e), e/(1+e))``
        with ``e = exp(-|x|)``, then ``sigma - y``.
        """
        x = scores  # (K, B, 1) raw logits
        ex = _buf(ws, "ex", x.shape)
        den = _buf(ws, "den", x.shape)
        delta = ws["delta"]
        np.abs(x, out=ex)
        np.negative(ex, out=ex)
        np.exp(ex, out=ex)  # exp(-|x|)
        np.add(ex, 1.0, out=den)
        np.divide(1.0, den, out=delta)  # sigma, non-negative branch
        np.divide(ex, den, out=ex)  # sigma, negative branch
        np.copyto(delta, ex, where=x < 0)
        delta -= y[:, :, None]
        return delta

    def forward_loss(self, X: np.ndarray, y: np.ndarray) -> Tensor:
        logits = self.module(np.asarray(X))
        targets = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        return binary_cross_entropy_with_logits(logits, targets)

    def predict(self, X: np.ndarray) -> np.ndarray:
        logits = self.module(np.asarray(X)).data.reshape(-1)
        return (logits > 0).astype(np.int64)
