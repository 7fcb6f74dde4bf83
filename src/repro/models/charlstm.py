"""Character-level LSTM for next-character prediction (Shakespeare workload).

The paper's Shakespeare model is: 8-d character embedding -> 2-layer LSTM
with 100 hidden units -> dense layer over the 80-character vocabulary,
predicting the character that follows an 80-character context.  This class
implements exactly that architecture with configurable (scaled-down) sizes;
the full-scale paper configuration is ``CharLSTM(vocab_size=80,
embed_dim=8, hidden=100, num_layers=2)``.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad, softmax_cross_entropy
from ..nn import LSTM, Dense, Embedding
from ..spec import register
from ._stacked_seq import SeqModule, StackedSeqSolveMixin
from .base import LSTM_BACKENDS, SEQ_EVAL_BLOCK_ROWS
from .neural import NeuralModel


class _CharLSTMModule(SeqModule):
    """Embedding -> stacked LSTM -> dense head."""

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden: int,
        num_layers: int,
        rng: np.random.Generator,
        backend: str = "fused",
    ) -> None:
        super().__init__(backend)
        self.embedding = Embedding(vocab_size, embed_dim, rng)
        self.lstm = LSTM(embed_dim, hidden, num_layers, rng)
        self.head = Dense(hidden, vocab_size, rng)


@register
class CharLSTM(StackedSeqSolveMixin, NeuralModel):
    """Next-character predictor over integer token sequences.

    Inputs ``X`` are ``(batch, time)`` integer arrays; labels ``y`` are the
    next-character ids, shape ``(batch,)``.

    Parameters
    ----------
    vocab_size:
        Size of the character vocabulary (80 in the paper).
    embed_dim:
        Embedding width (8 in the paper).
    hidden:
        LSTM hidden width (100 in the paper).
    num_layers:
        Number of stacked LSTM layers (2 in the paper).
    seed:
        Weight-initialization seed.
    backend:
        ``"fused"`` (default) trains through the stacked kernel
        (:mod:`repro.autograd.stacked_lstm`, one row for a serial solve)
        and evaluates through :func:`repro.autograd.fused_lstm`;
        ``"graph"`` keeps the per-timestep autograd graph (the gradcheck
        reference).  Both backends share initialization and the flat
        parameter layout, and agree to floating-point rounding.
    """

    def __init__(
        self,
        vocab_size: int = 80,
        embed_dim: int = 8,
        hidden: int = 100,
        num_layers: int = 2,
        seed: int = 0,
        backend: str = "fused",
    ) -> None:
        if backend not in LSTM_BACKENDS:
            raise ValueError(f"backend must be one of {LSTM_BACKENDS}, got {backend!r}")
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.num_layers = num_layers
        self.backend = backend
        super().__init__(seed=seed)

    def build(self, rng: np.random.Generator) -> SeqModule:
        return _CharLSTMModule(
            self.vocab_size,
            self.embed_dim,
            self.hidden,
            self.num_layers,
            rng,
            backend=self.backend,
        )

    @property
    def supports_stacked_eval(self) -> bool:
        """Mean softmax NLL stacks exactly across client batches."""
        return True

    @property
    def stacked_eval_block_rows(self) -> int:
        """Sequence-aware block: activations scale with ``time x hidden``."""
        return SEQ_EVAL_BLOCK_ROWS

    # Stacked local-solve wiring (StackedSeqSolveMixin) ------------------- #
    @property
    def _stacked_head_width(self) -> int:
        return self.vocab_size

    @property
    def _stacked_trainable_embedding(self) -> bool:
        return True

    def _stacked_loss_delta(
        self, ws: dict, scores: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Softmax-CE gradient per row, op-for-op as the autograd loss.

        Replicates :func:`repro.autograd.softmax_cross_entropy`: max-shift,
        ``log_z`` through exp/sum/log, softmax as ``exp(log_probs)``, then
        the one-hot subtraction — so each client row is bitwise the graph
        backward's ``base``.
        """
        mx, red, delta = ws["col"], ws["col2"], ws["delta"]
        np.amax(scores, axis=2, keepdims=True, out=mx)
        np.subtract(scores, mx, out=scores)  # shifted logits
        np.exp(scores, out=delta)
        np.sum(delta, axis=2, keepdims=True, out=red)
        np.log(red, out=red)  # log partition
        np.subtract(scores, red, out=scores)  # log-probs
        np.exp(scores, out=delta)  # softmax
        delta[ws["k2"], ws["b2"], y] -= 1.0
        return delta

    def forward_loss(self, X: np.ndarray, y: np.ndarray) -> Tensor:
        logits = self.module(np.asarray(X))
        return softmax_cross_entropy(logits, np.asarray(y))

    def predict(self, X: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.module(np.asarray(X)).data.argmax(axis=1)
