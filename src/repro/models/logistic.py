"""Multinomial logistic regression with closed-form NumPy gradients.

This is the convex workload of the paper (synthetic datasets, MNIST,
FEMNIST).  Gradients are computed directly — no autograd graph — because the
convex experiments involve up to 1000 devices and dominate the harness
runtime.  Correctness is cross-checked against the autograd engine in
``tests/test_models_logistic.py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ..spec import register
from .base import FederatedModel


#: Bytes of float64 rows one gather of the solve loop may hold.  Large
#: enough that a Synthetic-sized device's epoch is one gather; small enough
#: that the buffer stays in cache and under malloc's mmap threshold (a
#: per-epoch copy of an MNIST-sized device is not: it cost ~150 page faults
#: per solve, more than the per-step gathers it replaced).
_GATHER_BYTES = 1 << 16

#: Bytes of float64 rows one product of the forward (:meth:`_scores`) reads.
#: 83 rows at d = 784, 1092 at d = 60: the converted rows stay L2-resident
#: and the ``(rows, dim) x (dim, 10)`` product is one OpenBLAS takes with its
#: small-matrix kernel.  Measured over the 55 660-row MNIST-like train split
#: (float32): conversion + GEMM 54-57 ms at 40-96 rows, 59-61 at 112-127,
#: 74-100 at 128-2048 and for the whole-block product; the transposed
#: product ``W.T @ rows.T`` is no faster at these sizes.
_SCORE_BYTES = 1 << 19


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable log-softmax."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@register
class MultinomialLogisticRegression(FederatedModel):
    """Softmax classifier ``argmax softmax(W x + b)``.

    Parameter layout in the flat vector: ``W.ravel()`` (``dim × classes``,
    row-major) followed by ``b`` (``classes``).

    Parameters
    ----------
    dim:
        Input feature width.
    num_classes:
        Number of output classes.
    l2:
        Optional L2 penalty coefficient added as ``l2/2 * ||params||^2``
        (disabled by default; the paper's objective has no weight decay).
    seed:
        Initialization seed.  The paper initializes to zeros, which we
        follow by default (``init_scale=0``).
    init_scale:
        Standard deviation of Gaussian initialization; 0 gives zeros.
    """

    def __init__(
        self,
        dim: int,
        num_classes: int,
        l2: float = 0.0,
        seed: int = 0,
        init_scale: float = 0.0,
    ) -> None:
        if dim <= 0 or num_classes <= 1:
            raise ValueError("dim must be positive and num_classes at least 2")
        self.dim = dim
        self.num_classes = num_classes
        self.l2 = float(l2)
        self.seed = seed
        self.init_scale = float(init_scale)
        rng = np.random.default_rng(seed)
        if init_scale > 0:
            self.W = rng.normal(0.0, init_scale, size=(dim, num_classes))
            self.b = rng.normal(0.0, init_scale, size=(num_classes,))
        else:
            self.W = np.zeros((dim, num_classes))
            self.b = np.zeros(num_classes)

    # ------------------------------------------------------------------ #
    @property
    def n_params(self) -> int:
        return self.dim * self.num_classes + self.num_classes

    def get_params(self) -> np.ndarray:
        return np.concatenate([self.W.reshape(-1), self.b]).copy()

    def set_params(self, w: np.ndarray) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.size != self.n_params:
            raise ValueError(f"expected {self.n_params} params, got {w.size}")
        split = self.dim * self.num_classes
        self.W = w[:split].reshape(self.dim, self.num_classes).copy()
        self.b = w[split:].copy()

    # ------------------------------------------------------------------ #
    @property
    def supports_stacked_eval(self) -> bool:
        """The mean softmax NLL stacks exactly across client batches."""
        return True

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """``X @ W + b`` as a fresh float64 ``(n, classes)`` array.

        The one forward behind :meth:`loss`, :meth:`predict`,
        :meth:`predict_proba` and both gradient entries.  Rows beyond one
        sub-block of ``_SCORE_BYTES`` are walked a sub-block at a time:
        converted (when not float64) into one reused buffer and multiplied
        straight into their slice of the scores, so a census block costs no
        float64 copy of itself and every product stays in the fast,
        cache-resident shape.  Each row's scores depend on that row and the
        parameters alone, so a block's value is still a pure function of
        ``(w, its rows)``; against the whole-block product they differ by
        a few ulp (numerics epoch 1, DESIGN §15).
        """
        rows = max(1, _SCORE_BYTES // (self.dim * 8))
        if len(X) <= rows:
            return np.asarray(X, dtype=np.float64) @ self.W + self.b
        X = np.asarray(X)
        scores = np.empty((len(X), self.num_classes))
        buf = None if X.dtype == np.float64 else np.empty((rows, self.dim))
        for lo in range(0, len(X), rows):
            block = X[lo : lo + rows]
            if buf is not None:
                np.copyto(buf[: len(block)], block, casting="unsafe")
                block = buf[: len(block)]
            np.matmul(block, self.W, out=scores[lo : lo + rows])
        scores += self.b
        return scores

    def _log_probs(self, X: np.ndarray) -> np.ndarray:
        """The softmax forward pass, up to the log-probabilities."""
        return _log_softmax(self._scores(X))

    def _nll(self, label_log_probs: np.ndarray) -> float:
        """Mean negative log-likelihood (plus the L2 penalty) of a forward."""
        nll = -label_log_probs.mean()
        if self.l2 > 0:
            nll += 0.5 * self.l2 * float(np.sum(self.W**2) + np.sum(self.b**2))
        return float(nll)

    def _backward(
        self, X: np.ndarray, y: np.ndarray, log_probs: np.ndarray
    ) -> np.ndarray:
        """Flat gradient of the mean loss given the forward's ``log_probs``."""
        delta = np.exp(log_probs)
        delta[np.arange(len(y)), y] -= 1.0
        delta /= len(y)
        grad_w = X.T @ delta
        grad_b = delta.sum(axis=0)
        if self.l2 > 0:
            grad_w = grad_w + self.l2 * self.W
            grad_b = grad_b + self.l2 * self.b
        return np.concatenate([grad_w.reshape(-1), grad_b])

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean softmax NLL; the scores are reduced where they lie.

        ``log_prob[label] = shifted[label] - log(sum(exp(shifted)))``, the
        same operations on the same operands as :func:`_log_softmax`
        followed by a label pick, without the ``(n, classes)``
        log-probability array in between.
        """
        shifted = self._scores(X)
        shifted -= shifted.max(axis=1, keepdims=True)
        picked = shifted[np.arange(len(shifted)), np.asarray(y)]
        np.exp(shifted, out=shifted)
        return self._nll(picked - np.log(shifted.sum(axis=1)))

    def loss_and_gradient(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """One forward pass shared by the loss and the gradient."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        log_probs = self._log_probs(X)
        loss = self._nll(log_probs[np.arange(len(y)), y])
        return loss, self._backward(X, y, log_probs)

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient only: the forward stops at ``log_probs``, no NLL."""
        X = np.asarray(X, dtype=np.float64)
        return self._backward(X, np.asarray(y), self._log_probs(X))

    def minibatch_gradients(
        self,
        w: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        orders: Iterable[np.ndarray],
        batch_size: int,
    ) -> Iterator[np.ndarray]:
        """The solve loop's gradient stream without per-step allocations.

        Same operations, in the same order, as the default (``set_params``
        then :meth:`gradient` on ``X[batch], y[batch]``) — bit-identical
        output — rearranged so that nothing is allocated after the first
        step: ``W``/``b`` and the two gradient blocks are views of the flat
        ``w`` and of the yielded buffer (no parameter copy, no
        ``concatenate``); rows are gathered, and converted to float64, a
        run of whole batches at a time into a reused buffer so a batch is
        a contiguous slice of it; every ufunc writes ``out=``; and the
        label scatter is ``delta -= onehot`` (``x - 0.0 == x`` off the
        label).  The model's own ``W``/``b`` are not touched.
        """
        X, y = np.asarray(X), np.asarray(y)
        dim, classes, l2 = self.dim, self.num_classes, self.l2
        split = dim * classes
        W = w[:split].reshape(dim, classes)
        b = w[split:]
        out = np.empty(self.n_params)
        grad_w = out[:split].reshape(dim, classes)
        grad_b = out[split:]
        if l2 > 0:
            l2_w, l2_b = np.empty_like(W), np.empty_like(b)

        # One gather serves as many whole batches as fit _GATHER_BYTES
        # (a small device's whole epoch; one batch when rows are wide).
        per_gather = max(1, _GATHER_BYTES // (batch_size * dim * 8))
        gather_rows = min(per_gather * batch_size, len(y))
        rows_buf = np.empty((gather_rows, dim))
        raw_buf = rows_buf  # float64 features need no conversion pass
        if X.dtype != np.float64:
            raw_buf = np.empty((gather_rows, dim), X.dtype)
        labels_buf = np.empty(gather_rows, y.dtype)
        onehot_buf = np.empty((gather_rows, classes))
        arange = np.arange(gather_rows)

        batch_rows = min(batch_size, gather_rows)
        scores_buf = np.empty((batch_rows, classes))
        exp_buf = np.empty((batch_rows, classes))
        red_buf = np.empty((batch_rows, 1))

        for order in orders:
            for first in range(0, len(order), gather_rows):
                idx = order[first : first + gather_rows]
                k = len(idx)
                X.take(idx, axis=0, out=raw_buf[:k], mode="clip")
                if raw_buf is not rows_buf:
                    np.copyto(rows_buf[:k], raw_buf[:k], casting="unsafe")
                y.take(idx, out=labels_buf[:k], mode="clip")
                onehot_buf[:k] = 0.0
                onehot_buf[arange[:k], labels_buf[:k]] = 1.0

                for start in range(0, k, batch_size):
                    stop = min(start + batch_size, k)
                    Xb = rows_buf[start:stop]
                    m = stop - start  # < batch_size on a short final batch
                    scores, expd, red = scores_buf[:m], exp_buf[:m], red_buf[:m]
                    np.matmul(Xb, W, out=scores)
                    scores += b
                    np.maximum.reduce(scores, axis=1, keepdims=True, out=red)
                    scores -= red  # shifted
                    np.exp(scores, out=expd)
                    np.add.reduce(expd, axis=1, keepdims=True, out=red)
                    np.log(red, out=red)
                    scores -= red  # log_probs
                    delta = np.exp(scores, out=scores)
                    delta -= onehot_buf[start:stop]
                    delta /= m
                    np.matmul(Xb.T, delta, out=grad_w)
                    np.add.reduce(delta, axis=0, out=grad_b)
                    if l2 > 0:
                        grad_w += np.multiply(W, l2, out=l2_w)
                        grad_b += np.multiply(b, l2, out=l2_b)
                    yield out

    @property
    def supports_stacked_local_solve(self) -> bool:
        """Closed-form gradients batch exactly over a leading client axis."""
        return True

    def stacked_minibatch_gradients(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
    ) -> Iterator[np.ndarray]:
        """The cohort step loop's gradient stream, hoisted out of the step.

        Replays :meth:`gradient`'s exact operation sequence (stable
        log-softmax, subtract-one-at-label, divide by the batch size) over
        a leading client axis; padding rows are zeroed by the mask before
        the backward GEMMs, so they contribute exact zeros.  Everything
        that does not depend on the step is built once per chunk: the
        parameter views of ``W``, the gradient views of the yielded buffer
        (each client's ``(dim, classes)`` block is contiguous, so the
        backward GEMM writes straight into it), the scratch, and the
        one-hot labels — the scatter is ``delta -= onehot``
        (``x - 0.0 == x`` off the label), as in :meth:`minibatch_gradients`.
        A step is then thirteen array calls (fourteen on a ragged one),
        every one writing ``out=``.  Nothing outlives the stream, so the
        model holds no solve state.
        """
        S, K, B = y.shape
        dim, C, l2 = self.dim, self.num_classes, self.l2
        split = dim * C
        Wk = W[:, :split].reshape(K, dim, C)
        bk = W[:, split:]
        bk_b = bk[:, None, :]
        out = np.empty((K, self.n_params))
        grad_w = out[:, :split].reshape(K, dim, C)
        grad_b = out[:, split:]
        if l2 > 0:
            l2_w, l2_b = np.empty((K, dim, C)), np.empty((K, C))

        scores = np.empty((K, B, C))
        expd = np.empty((K, B, C))
        red = np.empty((K, B, 1))
        onehot = np.zeros((S * K * B, C))
        onehot[np.arange(S * K * B), y.reshape(-1)] = 1.0
        steps = zip(
            X,
            X.swapaxes(2, 3),
            onehot.reshape(S, K, B, C),
            counts,
            mask[:, :, :, None],
            mask.all(axis=(1, 2)).tolist(),
        )
        for Xs, Xs_t, hot, count, mask_s, dense in steps:
            np.matmul(Xs, Wk, out=scores)
            scores += bk_b
            np.maximum.reduce(scores, axis=2, keepdims=True, out=red)
            scores -= red  # shifted
            np.exp(scores, out=expd)
            np.add.reduce(expd, axis=2, keepdims=True, out=red)
            np.log(red, out=red)
            scores -= red  # log_probs
            delta = np.exp(scores, out=scores)
            delta -= hot
            delta /= count
            if not dense:
                delta *= mask_s
            np.matmul(Xs_t, delta, out=grad_w)
            np.add.reduce(delta, axis=1, out=grad_b)
            if l2 > 0:
                grad_w += np.multiply(Wk, l2, out=l2_w)
                grad_b += np.multiply(bk, l2, out=l2_b)
            yield out

    def stacked_gradient(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: Optional[np.ndarray],
        counts: np.ndarray,
    ) -> np.ndarray:
        """Batched softmax-NLL gradients, one parameter row per client.

        One step of :meth:`stacked_minibatch_gradients` — the only stacked
        kernel body — so a direct call and the cohort loop cannot drift
        apart.  The result is a fresh array.
        """
        y = np.asarray(y)
        if mask is None:
            mask = np.ones(y.shape)
        stream = self.stacked_minibatch_gradients(
            W,
            np.asarray(X)[None],
            y[None],
            mask[None],
            np.asarray(counts).reshape(1, len(y), 1, 1),
        )
        return next(stream)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._scores(X).argmax(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for each row of ``X``."""
        return np.exp(self._log_probs(X))

    def spawn_replica(self) -> "MultinomialLogisticRegression":
        """Everything is plain NumPy state, so a clone pickles cheaply."""
        return self.clone()
