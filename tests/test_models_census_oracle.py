"""The evaluation forward against the whole-block forward it replaced.

Numerics epoch 1 (DESIGN §15) spent cross-commit digest equality on the
census: ``MultinomialLogisticRegression`` walks rows beyond one sub-block
of ``_SCORE_BYTES`` a sub-block at a time, through one reused float64
buffer, and ``loss`` reduces the scores where they lie.  What that is
allowed to move is stated here rather than implied: the pre-change
``loss`` / ``predict`` / ``loss_and_gradient`` are frozen below as the
oracle, and the library must be

* ``np.array_equal`` to them on the loss and the probabilities whenever
  the batch fits one sub-block;
* within ``LOSS_BOUND`` relative on the loss otherwise (observed maximum
  over this sweep: 2.7e-16, under two ulp), with every predicted label equal.

Epoch 2 moved the gradient off this forward (the bias rides in both
products, one division normalises; ``tests/test_optim_stream.py`` pins
it bitwise): a mini-batch gradient is held here to ``GRAD_BOUND`` of the
frozen one.

The two things the forward assumes about NumPy — ``np.copyto`` converts as
``asarray(dtype=float64)`` does, and ``np.matmul(out=)`` into a row slice of
the scores equals matmul-then-assign — have their own tests, so a NumPy
release that changes either fails with its cause named.
"""

import tracemalloc

import numpy as np
import pytest

from repro.models import MultinomialLogisticRegression
from repro.models.logistic import _SCORE_BYTES

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

CLASSES = 10

#: The stated bound on an evaluated loss, relative.  Nothing here needs
#: more than 2.7e-16; replay across the epoch allows 1e-12 for whole runs.
LOSS_BOUND = 1e-14

#: The stated bound on a gradient against the frozen (epoch-1) one,
#: ``max|got - want| / max|want|``; observed maximum over this file:
#: 1.7e-16 on a mini-batch, 1.0e-15 on a full batch of several sub-blocks.
GRAD_BOUND = 1e-14


# --------------------------------------------------------------------- #
# The oracle: the pre-change code, frozen.  Do not "simplify" it towards
# the library — its whole value is that it does not share code with it.
# --------------------------------------------------------------------- #
def _frozen_log_softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _frozen_log_probs(model, X):
    return _frozen_log_softmax(np.asarray(X, dtype=np.float64) @ model.W + model.b)


def _frozen_nll(model, log_probs, y):
    nll = -log_probs[np.arange(len(y)), np.asarray(y)].mean()
    if model.l2 > 0:
        nll += 0.5 * model.l2 * float(np.sum(model.W**2) + np.sum(model.b**2))
    return float(nll)


def frozen_loss(model, X, y):
    return _frozen_nll(model, _frozen_log_probs(model, X), y)


def frozen_predict(model, X):
    return (np.asarray(X, dtype=np.float64) @ model.W + model.b).argmax(axis=1)


def frozen_loss_and_gradient(model, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    log_probs = _frozen_log_probs(model, X)
    delta = np.exp(log_probs)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    grad_w = X.T @ delta
    grad_b = delta.sum(axis=0)
    if model.l2 > 0:
        grad_w = grad_w + model.l2 * model.W
        grad_b = grad_b + model.l2 * model.b
    return _frozen_nll(model, log_probs, y), np.concatenate(
        [grad_w.reshape(-1), grad_b]
    )


# --------------------------------------------------------------------- #
def sub_block_rows(dim):
    return _SCORE_BYTES // (dim * 8)


def _rows(n, dim, dtype, layout, seed):
    """``n`` rows of ``dtype`` laid out as the census meets them."""
    rng = np.random.default_rng(seed)
    if layout == "contiguous":
        X = rng.normal(size=(n, dim)).astype(dtype)
    elif layout == "offset_view":  # a block of a packed store's stack
        X = rng.normal(size=(n + 7, dim)).astype(dtype)[5 : n + 5]
    else:  # every other row and column of a wider array
        X = rng.normal(size=(2 * n, 2 * dim)).astype(dtype)[::2, ::2]
        assert not X.flags.c_contiguous
    return X, rng.integers(0, CLASSES, size=n)


def _cases():
    """``(dim, rows)`` on both sides of one sub-block and of one census block."""
    for dim in (60, 784):
        r = sub_block_rows(dim)
        for n in (1, r - 1, r, r + 1, 2 * r + 3, 2048, 5000):
            yield dim, n


@pytest.mark.parametrize("layout", ["contiguous", "offset_view", "non_contiguous"])
@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim, n", list(_cases()))
def test_forward_against_the_frozen_whole_block(dim, n, dtype, l2, layout):
    model = MultinomialLogisticRegression(
        dim, CLASSES, l2=l2, seed=dim + n, init_scale=0.3
    )
    X, y = _rows(n, dim, dtype, layout, seed=n)

    got, want = model.loss(X, y), frozen_loss(model, X, y)
    if n <= sub_block_rows(dim):
        assert got == want
        assert np.array_equal(
            model.predict_proba(X), np.exp(_frozen_log_probs(model, X))
        )
    else:
        assert abs(got - want) <= LOSS_BOUND * abs(want)
    assert np.array_equal(model.predict(X), frozen_predict(model, X))


def test_observed_maximum_is_a_few_ulp():
    """The bound is generous on purpose; this is what the forward really moves."""
    worst = 0.0
    for dim, n in _cases():
        if n <= sub_block_rows(dim):
            continue
        for dtype in (np.float32, np.float64):
            model = MultinomialLogisticRegression(
                dim, CLASSES, seed=dim + n, init_scale=0.3
            )
            X, y = _rows(n, dim, dtype, "contiguous", seed=n)
            want = frozen_loss(model, X, y)
            worst = max(worst, abs(model.loss(X, y) - want) / abs(want))
    assert worst <= 1e-15


@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [60, 784])
def test_a_mini_batch_is_bit_identical(dim, dtype, l2):
    """Batch 10 — the solve's shape — keeps every bit of the loss; its
    gradient is epoch 2's, within ``GRAD_BOUND`` of the frozen one."""
    model = MultinomialLogisticRegression(dim, CLASSES, l2=l2, seed=3, init_scale=0.3)
    X, y = _rows(10, dim, dtype, "offset_view", seed=4)
    loss, grad = model.loss_and_gradient(X, y)
    want_loss, want_grad = frozen_loss_and_gradient(model, X, y)
    assert loss == want_loss
    assert np.array_equal(grad, model.gradient(X, y))
    assert np.abs(grad - want_grad).max() <= GRAD_BOUND * np.abs(want_grad).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim, n", list(_cases()))
def test_a_full_batch_gradient_walks_sub_blocks(dim, n, dtype):
    """The full-batch gradient sums its sub-blocks' backward products,
    holding one ones-column sub-block at a time — never an ``(n, dim + 1)``
    float64 copy of the device — within ``GRAD_BOUND`` of the frozen one."""
    model = MultinomialLogisticRegression(
        dim, CLASSES, l2=0.1, seed=dim + n, init_scale=0.3
    )
    X, y = _rows(n, dim, dtype, "non_contiguous", seed=n)
    tracemalloc.start()
    try:
        got = model.gradient(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, want = frozen_loss_and_gradient(model, X, y)
    assert np.abs(got - want).max() <= GRAD_BOUND * np.abs(want).max()
    assert peak <= 2 * _SCORE_BYTES


def test_a_block_value_depends_on_its_rows_alone():
    """What the serial == parallel census gate rests on: same rows, same
    parameters, same float — wherever the rows sit in a larger array."""
    model = MultinomialLogisticRegression(784, CLASSES, seed=1, init_scale=0.3)
    X, y = _rows(4096, 784, np.float32, "contiguous", seed=9)
    whole = model.loss(X[1000:3048], y[1000:3048])
    assert whole == model.loss(X[1000:3048].copy(), y[1000:3048].copy())
    assert whole == model.loss(np.roll(X, 17, axis=0)[1017:3065], y[1000:3048])


class TestNumpyAssumptions:
    def test_copyto_converts_as_asarray_does(self):
        X = np.random.default_rng(0).normal(size=(83, 784)).astype(np.float32)
        buf = np.empty((100, 784))
        np.copyto(buf[:83], X, casting="unsafe")
        assert np.array_equal(buf[:83], np.asarray(X, dtype=np.float64))

    def test_matmul_into_a_row_slice_equals_matmul_then_assign(self):
        rng = np.random.default_rng(1)
        X, W = rng.normal(size=(83, 784)), rng.normal(size=(784, CLASSES))
        scores = np.empty((200, CLASSES))
        np.matmul(X, W, out=scores[83:166])
        assert np.array_equal(scores[83:166], X @ W)
