"""Two-layer perceptron classifier through the autograd adapter.

Not used by a headline experiment, but exercises the :class:`NeuralModel`
adapter on a simple feed-forward network as a non-convex model.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad, softmax_cross_entropy
from ..nn import Dense, Sequential
from ..nn.module import Module
from ..spec import register
from .neural import NeuralModel


@register
class MLPClassifier(NeuralModel):
    """``dense(hidden, relu) -> dense(classes)`` softmax classifier.

    Parameters
    ----------
    dim:
        Input feature width.
    num_classes:
        Output classes.
    hidden:
        Hidden layer width.
    seed:
        Weight-initialization seed.
    """

    def __init__(self, dim: int, num_classes: int, hidden: int = 32, seed: int = 0) -> None:
        self.dim = dim
        self.num_classes = num_classes
        self.hidden = hidden
        super().__init__(seed=seed)

    def build(self, rng: np.random.Generator) -> Module:
        return Sequential(
            Dense(self.dim, self.hidden, rng, activation="relu"),
            Dense(self.hidden, self.num_classes, rng),
        )

    def forward_logits(self, X: np.ndarray) -> Tensor:
        """Raw class scores for a batch."""
        return self.module(Tensor(np.asarray(X, dtype=np.float64)))

    def forward_loss(self, X: np.ndarray, y: np.ndarray) -> Tensor:
        return softmax_cross_entropy(self.forward_logits(X), np.asarray(y))

    def predict(self, X: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.forward_logits(X).data.argmax(axis=1)

    @property
    def supports_stacked_eval(self) -> bool:
        """Mean softmax NLL stacks exactly across client batches."""
        return True

    @property
    def supports_stacked_local_solve(self) -> bool:
        """The two-layer backward pass is written out by hand below."""
        return True

    def _unpack_stacked(self, W: np.ndarray):
        """Split ``(K, n_params)`` rows into per-layer stacked weights.

        Follows the module's flat layout: ``W1.ravel(), b1, W2.ravel(), b2``
        (Dense registers ``weight`` before ``bias``; ``Sequential`` visits
        layers in order).
        """
        K = W.shape[0]
        s1 = self.dim * self.hidden
        s2 = s1 + self.hidden
        s3 = s2 + self.hidden * self.num_classes
        W1 = W[:, :s1].reshape(K, self.dim, self.hidden)
        b1 = W[:, s1:s2]
        W2 = W[:, s2:s3].reshape(K, self.hidden, self.num_classes)
        b2 = W[:, s3:]
        return W1, b1, W2, b2, (s1, s2, s3)

    def stacked_gradient(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask,
        counts: np.ndarray,
    ) -> np.ndarray:
        """Hand-batched forward+backward over a leading client axis.

        Mirrors the autograd path operation by operation: relu gates on a
        strict ``> 0`` mask, and the cross-entropy backward scales by the
        reciprocal ``1/batch`` (the way ``softmax_cross_entropy`` seeds its
        mean reduction) rather than dividing — keeping the cohort path
        ulp-comparable to the scalar path.
        """
        K = W.shape[0]
        W1, b1, W2, b2, (s1, s2, s3) = self._unpack_stacked(W)

        Z1 = np.matmul(X, W1) + b1[:, None, :]
        relu_mask = Z1 > 0
        H = np.where(relu_mask, Z1, 0.0)
        scores = np.matmul(H, W2) + b2[:, None, :]

        shifted = scores - scores.max(axis=2, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
        delta = np.exp(log_probs)
        rows = np.arange(K)[:, None]
        cols = np.arange(X.shape[1])[None, :]
        delta[rows, cols, y] -= 1.0
        inv = 1.0 / counts
        delta *= inv if inv.ndim == 3 else inv[:, None, None]
        if mask is not None:
            delta *= mask[:, :, None]

        grad_w2 = np.matmul(H.transpose(0, 2, 1), delta)
        grad_b2 = delta.sum(axis=1)
        d_hidden = np.matmul(delta, W2.transpose(0, 2, 1))
        d_hidden *= relu_mask
        grad_w1 = np.matmul(X.transpose(0, 2, 1), d_hidden)
        grad_b1 = d_hidden.sum(axis=1)

        out = np.empty_like(W)
        out[:, :s1] = grad_w1.reshape(K, s1)
        out[:, s1:s2] = grad_b1
        out[:, s2:s3] = grad_w2.reshape(K, s3 - s2)
        out[:, s3:] = grad_b2
        return out
