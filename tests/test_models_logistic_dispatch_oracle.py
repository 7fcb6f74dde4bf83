"""Bit parity of the serial logistic step with its ``np.matmul`` form.

A serial solve's step and the full-batch ``gradient`` are the model's
training kernel at the flat parameter vector.  Their products go through
``np.dot`` when the batch holds at least 2 rows, every in-place update is
the ufunc called with ``out`` positionally, and the per-step scalars (the
residual's ``scale / m``, SGD's ``1 - lr µ``) are 0-d arrays.  None of
that changes an operand or the order of a call, so nothing may move a bit:
the kernel as it was before — ``np.matmul`` for both products, the
in-place operators, Python-float factors — is frozen below, with the SGD
rule and the solve loop it ran under, and the library must be
``np.array_equal`` to it:

* every gradient a serial SGD solve's stream yields, and the iterate it
  returns, at every batch height from 1 to 10 (a one-row device too),
  for Synthetic-wide float64 rows and MNIST-wide float32 rows, at µ = 0
  and µ = 1, with and without a correction, with and without ``l2``;
* ``gradient`` on devices whose last sub-block is 1 row or 2 rows.

The NumPy fact this rests on — a 2-D product of height ≥ 2 through
``np.dot`` is bitwise the ``np.matmul`` one, a transposed left operand
included — has its own test, so a NumPy release that breaks it fails with
its cause named rather than as a parity diff.
"""

import numpy as np
import pytest

from repro.models import MultinomialLogisticRegression
from repro.models.logistic import _GATHER_BYTES, _SCORE_BYTES, _Kernel
from repro.optim import BatchSchedule, LocalObjective, SGDSolver

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

CLASSES = 10
LR = 0.05

#: (feature width, row dtype): the Synthetic rows and the MNIST-like rows.
ROWS = [(60, np.float64), (784, np.float32)]


# --------------------------------------------------------------------- #
# The kernel before the dispatch change, frozen.  Do not "simplify" it
# towards the library: its whole value is that it does not share code
# with it.
# --------------------------------------------------------------------- #
def _frozen_softmax_minus_onehot(scores, red, onehot):
    np.maximum.reduce(scores, axis=-1, keepdims=True, out=red)
    scores -= red
    np.exp(scores, out=scores)
    np.add.reduce(scores, axis=-1, keepdims=True, out=red)
    scores /= red
    scores -= onehot
    return scores


def _frozen_one_hot(labels, hot, rows=None):
    hot[:] = 0.0
    hot[np.arange(len(labels)) if rows is None else rows, labels] = 1.0
    return hot


class _FrozenKernel:
    def __init__(self, model, W, B, l2, divide=False):
        lead = W.shape[:-1]
        dim, C = model.dim, model.num_classes
        self.W = W.reshape(lead + (dim + 1, C))
        self.out = np.empty(lead + (model.n_params,))
        self.grad = self.out.reshape(lead + (dim + 1, C))
        self.scores = np.empty(lead + (B, C))
        self.red = np.empty(lead + (B, 1))
        self.l2 = l2
        self.l2_buf = np.empty_like(self.grad) if l2 > 0 else None
        self.divide = divide

    @staticmethod
    def operands(X, hot, factors, masks):
        return list(zip(X, X.swapaxes(-1, -2), hot, factors, masks))

    def run(self, steps):
        W, scores, red, grad, out = self.W, self.scores, self.red, self.grad, self.out
        l2, l2_buf, divide = self.l2, self.l2_buf, self.divide
        for X, X_t, hot, factor, mask in steps:
            np.matmul(X, W, out=scores)
            delta = _frozen_softmax_minus_onehot(scores, red, hot)
            if divide:
                delta /= factor
            else:
                delta *= factor
            if mask is not None:
                delta *= mask
            np.matmul(X_t, delta, out=grad)
            if l2 > 0:
                grad += np.multiply(W, l2, out=l2_buf)
            yield out


def frozen_minibatch_gradients(model, w, X, y, orders, batch_size, scale):
    """``MultinomialLogisticRegression.minibatch_gradients`` on the frozen
    kernel (its gathers did not change)."""
    X, y = np.asarray(X), np.asarray(y)
    dim, classes = model.dim, model.num_classes
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
    kernel = _FrozenKernel(model, w, batch_rows, scale * model.l2)

    def operands(k):
        factors = [scale / min(batch_size, k - lo) for lo in range(0, k, batch_size)]
        steps = len(factors)
        return kernel.operands(X3[:steps], hot3[:steps], factors, [None] * steps)

    def gathers():
        layouts = {}
        ones_to = 0
        for order in orders:
            for first in range(0, len(order), gather_rows):
                idx = order[first : first + gather_rows]
                k = len(idx)
                if k != ones_to:
                    rows_buf[:k, dim] = 1.0
                    rows_buf[k:] = 0.0
                    ones_to = k
                X.take(idx, axis=0, out=raw_buf[:k], mode="clip")
                np.copyto(rows_buf[:k, :dim], raw_buf[:k], casting="unsafe")
                y.take(idx, out=labels_buf[:k], mode="clip")
                _frozen_one_hot(labels_buf, hot_buf, arange)
                steps = layouts.get(k)
                if steps is None:
                    steps = layouts[k] = operands(k)
                yield from steps

    return kernel.run(gathers())


def frozen_sgd_solve(model, X, y, w_ref, mu, correction, batch_size, w_start, epochs, rng, seen):
    """``SGDSolver.solve`` before the change: Python-float decay, in-place
    operators, ``grad[None, :]`` at every step.  Appends a copy of every
    yielded gradient to ``seen``."""
    w = np.array(w_start, dtype=np.float64, copy=True)
    schedule = BatchSchedule(len(y), batch_size, epochs)
    W = w[None, :]
    decay = 1.0 - LR * mu if mu > 0 else None
    b = mu * w_ref if mu > 0 else None
    if correction is not None:
        b = -correction if b is None else b - correction
    if b is not None:
        b *= LR
        b = b[None, :]
    stream = frozen_minibatch_gradients(
        model, w, X, y, schedule.epoch_orders(rng), batch_size, LR
    )
    for grad in stream:
        seen.append(grad.copy())
        G = grad[None, :]
        if decay is not None:
            W *= decay
        if b is not None:
            W += b
        W -= G
    return w


def frozen_gradient(model, X, y):
    """``MultinomialLogisticRegression.gradient`` on the frozen kernel."""
    X, y = np.asarray(X), np.asarray(y)
    dim, n = model.dim, len(y)
    w = np.concatenate((model.W.reshape(-1), model.b))
    rows = max(1, min(n, _SCORE_BYTES // (dim * 8)))
    block = np.empty((rows, dim + 1))
    block[:, dim] = 1.0
    hot = np.empty((rows, model.num_classes))
    kernel = _FrozenKernel(model, w, rows, 0.0, divide=True)
    out = None
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        if m < rows:
            kernel = _FrozenKernel(model, w, m, 0.0, divide=True)
        xb = block[:m]
        np.copyto(xb[:, :dim], X[lo : lo + m], casting="unsafe")
        _frozen_one_hot(y[lo : lo + m], hot[:m])
        (g,) = kernel.run([(xb, xb.T, hot[:m], n, None)])
        if out is None:
            out = g.copy()
        else:
            out += g
    if model.l2 > 0:
        out += np.multiply(w, model.l2)
    return out


# --------------------------------------------------------------------- #
class _Recording(LocalObjective):
    """The library's objective, keeping a copy of every yielded gradient."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def minibatch_gradients(self, w, schedule, rng, scale=1.0):
        for grad in super().minibatch_gradients(w, schedule, rng, scale):
            self.seen.append(grad.copy())
            yield grad


def _device(dim, dtype, n, seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, dim)).astype(dtype)
    y = gen.integers(CLASSES, size=n)
    return X, y


class TestSerialSolveIsTheFrozenStep:
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("corrected", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    @pytest.mark.parametrize("dim,dtype", ROWS)
    @pytest.mark.parametrize("batch", range(1, 11))
    def test_every_yield_and_the_iterate(self, batch, dim, dtype, mu, corrected, l2):
        model = MultinomialLogisticRegression(dim, CLASSES, l2=l2)
        gen = np.random.default_rng(batch)
        w_ref = gen.normal(size=model.n_params) * 0.1
        w0 = w_ref + gen.normal(size=model.n_params) * 0.05
        correction = gen.normal(size=model.n_params) * 0.01 if corrected else None
        # 23 rows: whole batches and a short one at every height but 1;
        # 1 row: the one-row device.
        for n in (23, 1):
            X, y = _device(dim, dtype, n, seed=n + batch)
            objective = _Recording(model, X, y, w_ref=w_ref, mu=mu, correction=correction)
            got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
            got = SGDSolver(LR, batch_size=batch).solve(objective, w0, 2.5, got_rng)
            seen = []
            want = frozen_sgd_solve(
                model, X, y, w_ref, mu, correction, batch, w0, 2.5, want_rng, seen
            )
            assert len(objective.seen) == len(seen) > 0
            for step, (g, e) in enumerate(zip(objective.seen, seen)):
                assert np.array_equal(g, e), (n, step)
            assert np.array_equal(got, want), n
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestGradientIsTheFrozenKernel:
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("last", [1, 2])
    @pytest.mark.parametrize("dim,dtype", ROWS)
    def test_last_sub_block_of_one_and_two_rows(self, dim, dtype, last, l2):
        rows = _SCORE_BYTES // (dim * 8)
        model = MultinomialLogisticRegression(dim, CLASSES, l2=l2, init_scale=0.1)
        for n in (rows + last, 2 * rows + last, last):
            X, y = _device(dim, dtype, n, seed=n)
            assert np.array_equal(model.gradient(X, y), frozen_gradient(model, X, y)), n


class TestTheNumPyFact:
    """``np.dot(a, b, out)`` is the GEMM ``np.matmul`` calls, bit for bit,
    for the kernel's 2-D products of height ≥ 2: the forward ``[x, 1] @
    [W; b]`` and the backward ``[x, 1].T @ residual``, whose left operand
    is a transposed view."""

    @pytest.mark.parametrize("dim", [61, 785])
    @pytest.mark.parametrize("height", range(2, 11))
    def test_dot_is_matmul(self, height, dim):
        gen = np.random.default_rng(height * dim)
        rows = gen.normal(size=(height, dim))
        W = gen.normal(size=(dim, CLASSES))
        delta = gen.normal(size=(height, CLASSES))
        for a, b, shape in ((rows, W, (height, CLASSES)), (rows.T, delta, (dim, CLASSES))):
            got, want = np.empty(shape), np.empty(shape)
            np.dot(a, b, got)
            np.matmul(a, b, out=want)
            assert np.array_equal(got, want)


class TestTheProductRoute:
    """Which entry point each product takes: ``np.dot`` only at the flat
    vector with a batch of at least 2 rows.  A one-row product keeps
    ``np.matmul`` because its gemv route is where NumPy/OpenBLAS releases
    may differ, and ``TestTheNumPyFact`` certifies ``np.dot`` only from
    height 2.  On NumPy 2.4 ``np.dot`` is bit-equal at height 1 as well,
    but the guard may go only in a change that has also run this file on
    the oldest supported NumPy (ci.yml's ``-m oracle`` job)."""

    def test_dot_at_the_flat_vector_from_two_rows(self):
        model = MultinomialLogisticRegression(60, CLASSES)
        w = np.zeros(model.n_params)
        assert _Kernel(model, w, 1, 0.0).product is np.matmul
        for batch in (2, 10):
            assert _Kernel(model, w, batch, 0.0).product is np.dot

    @pytest.mark.parametrize("batch", [1, 2, 10])
    def test_matmul_on_a_stack_of_lanes(self, batch):
        model = MultinomialLogisticRegression(60, CLASSES)
        W = np.zeros((3, model.n_params))
        assert _Kernel(model, W, batch, 0.0).product is np.matmul
