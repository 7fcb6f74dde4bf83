"""Multinomial logistic regression with closed-form NumPy gradients.

This is the convex workload of the paper (synthetic datasets, MNIST,
FEMNIST).  Gradients are computed directly — no autograd graph — because the
convex experiments involve up to 1000 devices and dominate the harness
runtime.  Correctness is cross-checked against the autograd engine in
``tests/test_models_logistic.py``.

Two forwards: the evaluation one (:meth:`~MultinomialLogisticRegression._scores`,
behind ``loss`` and ``predict``) adds the bias after the product; the
training one, :class:`_Kernel` — every solve step, serial or cohort, and
the full-batch ``gradient`` — multiplies ``[x, 1]`` rows by the ``[W; b]``
view of the flat parameters, so the bias rides inside both products, and
normalises the softmax with one division (numerics epoch 2, DESIGN §15).
A solve step then scales the softmax residual by ``scale / m`` — the
solver's step size over the batch size — where ``gradient`` divides it by
``m``, so the stream yields the step-scaled gradient at no extra call
(numerics epoch 3).
"""

from __future__ import annotations

import itertools
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


def _one_hot(labels: np.ndarray, hot: np.ndarray, rows=None) -> np.ndarray:
    """``hot``, ``(len(labels), classes)``, becomes the one-hot ``labels``;
    ``rows`` is ``np.arange(len(labels))`` when the caller keeps one."""
    hot[:] = 0.0
    hot[np.arange(len(labels)) if rows is None else rows, labels] = 1.0
    return hot


class _Kernel:
    """The model's one training kernel, at the rows of ``W``.

    Every gradient the model takes runs here: the cohort's steps, at the
    ``(K, n_params)`` stack of its lanes, and a serial solve's and the
    full-batch :meth:`~MultinomialLogisticRegression.gradient`'s, at the
    flat ``(n_params,)`` vector — the one-row case without its unit
    client axis, which NumPy's batched calls would charge ≈ 4 % of a
    Synthetic-sized step for.  A step is the forward product of
    ``[x, 1]`` rows by each row's ``[W; b]`` view, six calls that make
    the scores ``softmax - onehot`` in place, the residual scaled by the
    step's factor — multiplied by ``scale / m`` in a solve, divided by ``n``
    (``divide``) in a full gradient — and masked when a cohort batch is
    padded, then the backward product straight into the gradient view:
    every call writes its output into buffers built here, once per batch
    height ``B``, and ``W`` is read in place at every step.

    At the flat vector the products go through ``np.dot`` when ``B`` is
    at least 2: the GEMM ``np.matmul`` would call, without its
    generalised-ufunc dispatch (the same bits, ≈ 0.8 µs a call sooner).
    A one-row product keeps ``np.matmul``, whose gemv route ``np.dot``
    need not share, and so does the cohort's batched stack.
    """

    def __init__(self, model, W, B, l2, divide=False):
        lead = W.shape[:-1]
        dim, C = model.dim, model.num_classes
        self.W = W.reshape(lead + (dim + 1, C))
        self.product = np.dot if not lead and B >= 2 else np.matmul
        self.out = np.empty(lead + (model.n_params,))
        self.grad = self.out.reshape(lead + (dim + 1, C))
        self.scores = np.empty(lead + (B, C))
        self.red = np.empty(lead + (B, 1))
        self.l2 = l2
        self.l2_buf = np.empty_like(self.grad) if l2 > 0 else None
        self.divide = divide

    @staticmethod
    def operands(X, hot, factors, masks) -> list:
        """Each step's ``(rows, rows.T, one-hot, factor, mask)`` from
        ``(S, ..., B, ·)`` chunks; ``masks`` holds ``None`` for a step
        with no padding (multiplying by ones is bitwise neutral).  A solve
        step's factor is an array (0-d in a serial solve), so no step
        converts a Python scalar."""
        return list(zip(X, X.swapaxes(-1, -2), hot, factors, masks))

    def run(self, steps) -> Iterator[np.ndarray]:
        """Yield the gradient of each step in turn (one buffer, valid
        until the next)."""
        W, scores, red, grad, out = self.W, self.scores, self.red, self.grad, self.out
        l2, l2_buf, product = self.l2, self.l2_buf, self.product
        rescale = np.divide if self.divide else np.multiply
        # A step is nothing but these calls, each writing its output
        # argument: bound once, and ``out`` passed positionally (the
        # in-place operators dispatch the same loops more slowly).
        amax, asum = np.maximum.reduce, np.add.reduce
        subtract, exp, divide, multiply = np.subtract, np.exp, np.divide, np.multiply
        for X, X_t, hot, factor, mask in steps:
            product(X, W, scores)
            # softmax - onehot in place: the stable shift, one exp, one
            # division by the row sums, then the label scatter
            # (x - 0.0 == x off the label).
            amax(scores, axis=-1, keepdims=True, out=red)
            subtract(scores, red, scores)
            exp(scores, scores)
            asum(scores, axis=-1, keepdims=True, out=red)
            divide(scores, red, scores)
            subtract(scores, hot, scores)
            rescale(scores, factor, scores)
            if mask is not None:
                multiply(scores, mask, scores)
            product(X_t, scores, grad)
            if l2 > 0:
                np.add(grad, multiply(W, l2, l2_buf), grad)
            yield out


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
        """Flat gradient of the mean loss: the kernel, a sub-block at a time.

        Rows are walked in :meth:`_scores`' ``_SCORE_BYTES`` sub-blocks
        through one reused ones-column buffer (never a float64 copy of the
        whole of ``X``); each sub-block is one :class:`_Kernel` step at the
        flat parameters, its residual divided by ``len(y)`` (numerics
        epoch 2), and the sub-blocks' gradients are summed in order, the
        L2 term added once.  The loss and gradient together are the base
        class's ``loss`` then ``gradient``: the loss stays on the
        evaluation forward.
        """
        X, y = np.asarray(X), np.asarray(y)
        dim, n = self.dim, len(y)
        w = np.concatenate((self.W.reshape(-1), self.b))
        rows = max(1, min(n, _SCORE_BYTES // (dim * 8)))
        block = _with_ones_column(rows, dim)
        hot = np.empty((rows, self.num_classes))
        kernel = _Kernel(self, w, rows, 0.0, divide=True)
        out = None
        for lo in range(0, n, rows):
            m = min(rows, n - lo)
            if m < rows:  # the last sub-block runs at its own height
                kernel = _Kernel(self, w, m, 0.0, divide=True)
            xb = block[:m]
            np.copyto(xb[:, :dim], X[lo : lo + m], casting="unsafe")
            _one_hot(y[lo : lo + m], hot[:m])
            (g,) = kernel.run([(xb, xb.T, hot[:m], n, None)])
            if out is None:
                out = g.copy()
            else:
                out += g
        if self.l2 > 0:
            out += np.multiply(w, self.l2)
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
        """A serial solve's gradient stream: the cohort's kernel on one row.

        The :class:`_Kernel` at ``w`` (read in place), fed a run of whole
        batches at a time: rows are gathered into the first ``dim``
        columns of a reused buffer whose last column is 1.0, laid out as
        ``(steps, batch, dim + 1)`` chunks.  A short final batch runs at
        the full batch height, as the cohort runs it; its padding rows are
        all zero, ones column included, so they add exact zeros to the
        backward product with no mask to multiply (the values of the
        cohort's masked padding).  The heights match unless the device
        holds less than one batch and the cohort pads it to a larger
        device's batch.  Each gather length's step operands are built once
        per solve, and the kernel steps through every gather in turn, so
        nothing is allocated after the first gather of each length.  Each
        yield is ``scale`` times the mean-loss gradient on its batch at
        ``w``.
        """
        X, y = np.asarray(X), np.asarray(y)
        dim, classes = self.dim, self.num_classes
        # One gather serves as many whole batches as fit _GATHER_BYTES
        # (a small device's whole epoch; one batch when rows are wide).
        # take(out=) into the strided feature columns would stage through
        # a temporary, so rows land in a contiguous buffer first.
        per_gather = max(1, _GATHER_BYTES // (batch_size * dim * 8))
        gather_rows = min(per_gather * batch_size, len(y))
        batch_rows = min(batch_size, gather_rows)
        padded = -(-gather_rows // batch_rows) * batch_rows
        rows_buf = np.zeros((padded, dim + 1))
        raw_buf = np.empty((gather_rows, dim), X.dtype)
        labels_buf = np.zeros(padded, y.dtype)
        hot_buf = np.empty((padded, classes))
        arange = np.arange(padded)
        X3 = rows_buf.reshape(-1, batch_rows, dim + 1)
        hot3 = hot_buf.reshape(-1, batch_rows, classes)
        kernel = _Kernel(self, w, batch_rows, scale * self.l2)

        def operands(k):
            """The step operands of a gather of ``k`` rows."""
            factors = [
                np.array(scale / min(batch_size, k - lo))
                for lo in range(0, k, batch_size)
            ]
            steps = len(factors)
            return kernel.operands(X3[:steps], hot3[:steps], factors, [None] * steps)

        def gathers():
            """Each gather's step operands, its rows in the buffers.  The
            kernel asks for the next gather only after the solver took
            the last step of this one."""
            layouts = {}  # every gather but an epoch's last has one length
            ones_to = 0  # rows_buf[:ones_to] has the ones column, the rest are zero
            for order in orders:
                for first in range(0, len(order), gather_rows):
                    idx = order[first : first + gather_rows]
                    k = len(idx)
                    if k != ones_to:  # rows past the gather become zero rows
                        rows_buf[:k, dim] = 1.0
                        rows_buf[k:] = 0.0
                        ones_to = k
                    X.take(idx, axis=0, out=raw_buf[:k], mode="clip")
                    np.copyto(rows_buf[:k, :dim], raw_buf[:k], casting="unsafe")
                    y.take(idx, out=labels_buf[:k], mode="clip")
                    _one_hot(labels_buf, hot_buf, arange)
                    steps = layouts.get(k)
                    if steps is None:
                        steps = layouts[k] = operands(k)
                    yield steps

        return kernel.run(itertools.chain.from_iterable(gathers()))

    @property
    def supports_stacked_local_solve(self) -> bool:
        """Closed-form gradients batch exactly over a leading client axis."""
        return True

    def stacked_buffer(
        self, rows: int, x: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``[x, 1]`` float64 rows: features in the first ``dim`` columns.

        The ones column is set once, so a padded slot (zero features)
        reads as the pad row ``[0, 1]``, and each gathered chunk is the
        one copy the stacked stream multiplies (never a second one beside
        a ones column).
        """
        buf = _with_ones_column(rows, self.dim)
        return buf, buf[:, : self.dim]

    def stacked_minibatch_gradients(
        self,
        W: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
        scale: float = 1.0,
    ) -> Iterator[np.ndarray]:
        """The cohort step loop's gradient stream: :class:`_Kernel` on a chunk.

        ``X`` holds :meth:`stacked_buffer`'s ``[x, 1]`` rows; everything
        that does not depend on the step is built once per chunk: the
        kernel's buffers, the one-hot labels, each row's ``scale / m``
        and the step views.  Nothing outlives the stream, so the model
        holds no solve state.
        """
        S, K, B = y.shape
        kernel = _Kernel(self, W, B, scale * self.l2)
        hot = _one_hot(y.reshape(-1), np.empty((S * K * B, self.num_classes)))
        dense = mask.all(axis=(1, 2)).tolist()
        masks = [None if d else m for d, m in zip(dense, mask[:, :, :, None])]
        hot = hot.reshape(S, K, B, self.num_classes)
        return kernel.run(kernel.operands(X, hot, scale / counts, masks))

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
        X, y = np.asarray(X), np.asarray(y)
        K, B = y.shape
        if mask is None:
            mask = np.ones(y.shape)
        rows, features = self.stacked_buffer(K * B, X)
        np.copyto(features, X.reshape(K * B, self.dim), casting="unsafe")
        stream = self.stacked_minibatch_gradients(
            W,
            rows.reshape(1, K, B, self.dim + 1),
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
