"""Bit parity of the MLP's one training kernel with the graph it replaced.

``MLPClassifier`` trains through one kernel, its hand-written
``stacked_gradient``: the cohort runs it on its lanes, and ``gradient``,
``loss_and_gradient`` and a serial solve's ``minibatch_gradients`` run it
on the one-row view of the iterate, each batch at its own height.  Before
that the serial path built the autograd graph for every batch — zero the
module's gradients, ``forward_loss(X, y).backward()``, read the flat
gradient — and that graph is the oracle here.  It shares no code with
the kernel, so every gradient and serial stream step of the one-row
kernel must be ``np.array_equal`` to the graph's, over heights that
include short last batches and both input dtypes.  Whole solves are held
to the same graph in ``tests/test_optim_stream.py``, the cohort's rows
in ``tests/test_runtime_cohort.py``.
"""

import numpy as np
import pytest

from repro.models import MLPClassifier

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

#: ``(dim, classes, hidden)``: the test-sized net and the paper-sized ones.
SHAPES = [(6, 4, 5), (60, 10, 16), (784, 10, 32)]


def graph_loss_and_gradient(model, X, y):
    """The replaced serial path: the autograd graph's forward and backward."""
    model.module.zero_grad()
    loss = model.forward_loss(X, y)
    loss.backward()
    return float(loss.data), model.module.flat_grad()


def _model(shape, seed):
    dim, classes, hidden = shape
    model = MLPClassifier(dim, classes, hidden=hidden, seed=seed)
    gen = np.random.default_rng(seed)
    model.set_params(gen.normal(size=model.n_params) * 0.3)
    return model, gen


def _data(gen, n, dim, classes, dtype):
    return gen.normal(size=(n, dim)).astype(dtype), gen.integers(classes, size=n)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gradient_and_loss_are_the_graphs(shape, dtype):
    model, gen = _model(shape, seed=shape[0])
    for n in [1, 2, 3, 7, 10, 23, 50]:
        X, y = _data(gen, n, shape[0], shape[1], dtype)
        want_loss, want_grad = graph_loss_and_gradient(model, X, y)
        assert np.array_equal(model.gradient(X, y), want_grad), n
        loss, grad = model.loss_and_gradient(X, y)
        assert loss == want_loss, n
        assert np.array_equal(grad, want_grad), n


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", SHAPES[:2], ids=lambda s: "x".join(map(str, s)))
def test_serial_stream_is_the_replaced_per_step_loop(shape, dtype):
    """A serial solve's stream, the iterate moving between steps (short
    last batches included), against ``set_params`` + the graph gradient."""
    model, gen = _model(shape, seed=7)
    oracle = MLPClassifier(shape[0], shape[1], hidden=shape[2], seed=7)
    X, y = _data(gen, 23, shape[0], shape[1], dtype)
    orders = [gen.permutation(23), gen.permutation(23)[:14]]
    w = model.get_params()
    scale = 0.05
    stream = model.minibatch_gradients(w, X, y, iter(orders), 10, scale)
    batches = [o[s : s + 10] for o in orders for s in range(0, len(o), 10)]
    assert sorted({len(b) for b in batches}) == [3, 4, 10]
    for step, (batch, got) in enumerate(zip(batches, stream)):
        oracle.set_params(w)
        _, want = graph_loss_and_gradient(oracle, X[batch], y[batch])
        assert np.array_equal(got, want * scale), step
        w -= got  # the solver moves the iterate the stream reads in place
    assert step == len(batches) - 1
    assert next(stream, None) is None

