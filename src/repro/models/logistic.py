"""Multinomial logistic regression with closed-form NumPy gradients.

This is the convex workload of the paper (synthetic datasets, MNIST,
FEMNIST).  Gradients are computed directly — no autograd graph — because the
convex experiments involve up to 1000 devices and dominate the harness
runtime.  Correctness is cross-checked against the autograd engine in
``tests/test_models_logistic.py``.

Two forwards: the evaluation one (:meth:`~MultinomialLogisticRegression._scores`,
behind ``loss`` and ``predict``) adds the bias after the product; the
gradient one — every solve step, scalar or stacked, and the full-batch
``gradient`` — multiplies ``[x, 1]`` rows by the ``[W; b]`` view of the
flat parameters, so the bias rides inside both products, and normalises
the softmax with one division (numerics epoch 2, DESIGN §15).  A solve
step then scales the softmax residual by ``scale / m`` — the solver's
step size over the batch size — where ``gradient`` divides it by ``m``,
so the stream yields the step-scaled gradient at no extra call (numerics
epoch 3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

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


def _with_ones_column(rows: int, dim: int) -> np.ndarray:
    """A ``(rows, dim + 1)`` float64 buffer whose last column is 1.0.

    Rows copied into its first ``dim`` columns read ``[x, 1]``, so their
    product with the ``(dim + 1, classes)`` view ``[W; b]`` of the flat
    parameters is ``x W + b``, and the backward product's last row is the
    bias gradient.
    """
    buf = np.empty((rows, dim + 1))
    buf[:, dim] = 1.0
    return buf


def _softmax_minus_onehot(scores, red, onehot):
    """``scores`` becomes ``softmax(scores) - onehot``, in place.

    Six array calls over the last axis, each writing ``out=``: the
    stable shift, one ``exp``, and one division by the row sums
    normalises.  ``-= onehot`` is the label scatter (``x - 0.0 == x`` off
    the label).  ``red`` is ``scores``' shape with a last axis of one.
    The caller scales the residual by its batch size.
    """
    np.maximum.reduce(scores, axis=-1, keepdims=True, out=red)
    scores -= red
    np.exp(scores, out=scores)
    np.add.reduce(scores, axis=-1, keepdims=True, out=red)
    scores /= red
    scores -= onehot
    return scores


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

        The evaluation forward, behind :meth:`loss`, :meth:`predict` and
        :meth:`predict_proba`.  Rows beyond one sub-block of
        ``_SCORE_BYTES`` are walked a sub-block at a time: converted
        (when not float64) into one reused buffer and multiplied
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

    def _nll(self, label_log_probs: np.ndarray) -> float:
        """Mean negative log-likelihood (plus the L2 penalty) of a forward."""
        nll = -label_log_probs.mean()
        if self.l2 > 0:
            nll += 0.5 * self.l2 * float(np.sum(self.W**2) + np.sum(self.b**2))
        return float(nll)

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

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Flat gradient of the mean loss: the solve step, a sub-block at a time.

        Rows are walked in :meth:`_scores`' ``_SCORE_BYTES`` sub-blocks
        through one reused ones-column buffer (never a float64 copy of the
        whole of ``X``); each sub-block is one step of
        :meth:`minibatch_gradients`' forward, its residual divided by
        ``len(y)``, and the sub-blocks' backward products are summed in
        order.  The loss and gradient together are the base class's
        ``loss`` then ``gradient``: the loss stays on the evaluation
        forward.
        """
        X, y = np.asarray(X), np.asarray(y)
        dim, classes, n = self.dim, self.num_classes, len(y)
        Wb = np.vstack((self.W, self.b))
        rows = max(1, min(n, _SCORE_BYTES // (dim * 8)))
        block = _with_ones_column(rows, dim)
        scores = np.empty((rows, classes))
        red = np.empty((rows, 1))
        onehot = np.empty((rows, classes))
        out = np.zeros(self.n_params)
        grad = out.reshape(dim + 1, classes)
        part = np.empty_like(grad)
        for lo in range(0, n, rows):
            m = min(rows, n - lo)
            xb, hot = block[:m], onehot[:m]
            np.copyto(xb[:, :dim], X[lo : lo + m], casting="unsafe")
            hot[:] = 0.0
            hot[np.arange(m), y[lo : lo + m]] = 1.0
            np.matmul(xb, Wb, out=scores[:m])
            delta = _softmax_minus_onehot(scores[:m], red[:m], hot)
            delta /= n
            if lo == 0:
                np.matmul(xb.T, delta, out=grad)
            else:
                grad += np.matmul(xb.T, delta, out=part)
        if self.l2 > 0:
            grad += np.multiply(Wb, self.l2, out=part)
        return out

    def minibatch_gradients(
        self,
        w: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        orders: Iterable[np.ndarray],
        batch_size: int,
        scale: float = 1.0,
    ) -> Iterator[np.ndarray]:
        """The solve loop's gradient stream: nine array calls a step.

        The bias rides inside both products.  The flat ``w`` is
        ``[W.ravel(), b]``, so ``w.reshape(dim + 1, classes)`` is ``[W; b]``
        as a view (read in place), and so is the yielded buffer's; rows are
        gathered, a run of whole batches at a time, into the first ``dim``
        columns of a reused buffer whose last column is 1.0.  A step is
        then the forward product, :func:`_softmax_minus_onehot` (six
        calls, one division normalising), one product by ``scale / m``
        and the backward product straight into the gradient view — every
        call writing ``out=`` into views built once per solve, nothing
        allocated after the first step, the model's own ``W``/``b`` not
        touched.  Each yield is ``scale`` times the mean-loss gradient on
        its batch at ``w``.
        """
        X, y = np.asarray(X), np.asarray(y)
        dim, classes = self.dim, self.num_classes
        l2 = scale * self.l2
        Wb = w.reshape(dim + 1, classes)
        out = np.empty(self.n_params)
        grad = out.reshape(dim + 1, classes)
        if l2 > 0:
            l2_buf = np.empty_like(grad)

        # One gather serves as many whole batches as fit _GATHER_BYTES
        # (a small device's whole epoch; one batch when rows are wide).
        # take(out=) into the strided feature columns would stage through
        # a temporary, so rows land in a contiguous buffer first.
        per_gather = max(1, _GATHER_BYTES // (batch_size * dim * 8))
        gather_rows = min(per_gather * batch_size, len(y))
        batch_rows = min(batch_size, gather_rows)
        # A short final batch still runs its forward on ``batch_rows`` rows
        # (the rows past it hold zeros or finite leftovers), as the stacked
        # path runs it on its padded batch: BLAS takes the same kernel for
        # the same height.  The heights match unless the device holds less
        # than one batch and the cohort pads to a larger device's batch.
        padded = -(-gather_rows // batch_rows) * batch_rows
        rows_buf = _with_ones_column(padded, dim)
        rows_buf[:, :dim] = 0.0
        raw_buf = np.empty((gather_rows, dim), X.dtype)
        labels_buf = np.empty(gather_rows, y.dtype)
        onehot_buf = np.zeros((padded, classes))
        arange = np.arange(gather_rows)
        scores_buf = np.empty((batch_rows, classes))
        red_buf = np.empty((batch_rows, 1))

        def operands(k):
            """Each step's views over a gather of ``k`` rows."""
            steps = []
            for start in range(0, k, batch_size):
                m = min(batch_size, k - start)  # < batch_size on a short batch
                stop = start + batch_rows
                steps.append((
                    rows_buf[start:stop], rows_buf[start : start + m].T,
                    onehot_buf[start:stop], scores_buf[:m], scale / m,
                ))
            return steps

        # Every gather but an epoch's (or a budget's) last has one length.
        layouts = {}
        for order in orders:
            for first in range(0, len(order), gather_rows):
                idx = order[first : first + gather_rows]
                k = len(idx)
                X.take(idx, axis=0, out=raw_buf[:k], mode="clip")
                np.copyto(rows_buf[:k, :dim], raw_buf[:k], casting="unsafe")
                y.take(idx, out=labels_buf[:k], mode="clip")
                onehot_buf[:k] = 0.0
                onehot_buf[arange[:k], labels_buf[:k]] = 1.0
                steps = layouts.get(k)
                if steps is None:
                    steps = layouts[k] = operands(k)
                for xb, xb_t, hot, delta, factor in steps:
                    np.matmul(xb, Wb, out=scores_buf)
                    _softmax_minus_onehot(scores_buf, red_buf, hot)
                    delta *= factor
                    np.matmul(xb_t, delta, out=grad)
                    if l2 > 0:
                        grad += np.multiply(Wb, l2, out=l2_buf)
                    yield out

    @property
    def supports_stacked_local_solve(self) -> bool:
        """Closed-form gradients batch exactly over a leading client axis."""
        return True

    def stacked_rows(self, shards: Sequence[np.ndarray]) -> np.ndarray:
        """The cohort's rows as ``[x, 1]`` float64, the pad row ``[0, 1]``.

        Laid out once per cohort solve, so each gathered chunk is the one
        copy the stacked stream multiplies (never a second one beside a
        ones column).
        """
        n = sum(len(x) for x in shards)
        rows = _with_ones_column(n + 1, self.dim)
        rows[n, : self.dim] = 0.0
        np.concatenate(shards, out=rows[:n, : self.dim], casting="unsafe")
        return rows

    def stacked_minibatch_gradients(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
        scale: float = 1.0,
    ) -> Iterator[np.ndarray]:
        """The cohort step loop's gradient stream: the scalar step, stacked.

        :meth:`minibatch_gradients`' formula over a leading client axis:
        each row of ``W`` is viewed as its ``[W; b]``, and ``X`` holds
        :meth:`stacked_rows`' ``[x, 1]`` rows, so the bias rides in both
        batched products.  Padding rows are zeroed by the mask before
        the backward product, so they contribute exact zeros.  Everything
        that does not depend on the step is built once per chunk: the
        parameter and gradient views, the scratch, the one-hot labels and
        each row's ``scale / m``.  A step is nine array calls (ten on a
        ragged one), every one writing ``out=``.  Nothing outlives the
        stream, so the model holds no solve state.
        """
        S, K, B = y.shape
        dim, C = self.dim, self.num_classes
        l2 = scale * self.l2
        Wk = W.reshape(K, dim + 1, C)
        out = np.empty((K, self.n_params))
        grad = out.reshape(K, dim + 1, C)
        if l2 > 0:
            l2_buf = np.empty_like(grad)

        scores = np.empty((K, B, C))
        red = np.empty((K, B, 1))
        onehot = np.zeros((S * K * B, C))
        onehot[np.arange(S * K * B), y.reshape(-1)] = 1.0
        steps = zip(
            X,
            X.swapaxes(2, 3),
            onehot.reshape(S, K, B, C),
            scale / counts,
            mask[:, :, :, None],
            mask.all(axis=(1, 2)).tolist(),
        )
        for Xs, Xs_t, hot, factor, mask_s, dense in steps:
            np.matmul(Xs, Wk, out=scores)
            delta = _softmax_minus_onehot(scores, red, hot)
            delta *= factor
            if not dense:
                delta *= mask_s
            np.matmul(Xs_t, delta, out=grad)
            if l2 > 0:
                grad += np.multiply(Wk, l2, out=l2_buf)
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

        One step of :meth:`stacked_minibatch_gradients` at ``scale`` 1 —
        the only stacked kernel body — so a direct call and the cohort
        loop cannot drift apart.  The result is a fresh array.
        """
        y = np.asarray(y)
        K, B = y.shape
        if mask is None:
            mask = np.ones(y.shape)
        rows = self.stacked_rows([np.asarray(X).reshape(K * B, self.dim)])
        stream = self.stacked_minibatch_gradients(
            W,
            rows[:-1].reshape(1, K, B, self.dim + 1),
            y[None],
            mask[None],
            np.asarray(counts).reshape(1, K, 1, 1),
        )
        return next(stream)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._scores(X).argmax(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for each row of ``X``."""
        return np.exp(_log_softmax(self._scores(X)))

    def spawn_replica(self) -> "MultinomialLogisticRegression":
        """Everything is plain NumPy state, so a clone pickles cheaply."""
        return self.clone()
