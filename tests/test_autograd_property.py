"""Property-based tests for the autograd engine (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import Tensor, check_gradients, ops, unbroadcast

_settings = settings(max_examples=30, deadline=None)

finite_floats = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)


def small_array(max_side: int = 4):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(1, max_side), st.integers(1, max_side)
        ),
        elements=finite_floats,
    )


@_settings
@given(small_array())
def test_tanh_gradcheck_random_shapes(a):
    check_gradients(lambda ts: ops.sum_(ops.tanh(ts[0])), [a])


@_settings
@given(small_array())
def test_sigmoid_gradcheck_random_shapes(a):
    check_gradients(lambda ts: ops.sum_(ops.sigmoid(ts[0])), [a])


@_settings
@given(small_array(), small_array())
def test_mul_gradcheck_broadcast_row(a, b):
    # Broadcast b's first row against a.
    row = b[:1, : a.shape[1]] if b.shape[1] >= a.shape[1] else None
    if row is None:
        return
    check_gradients(lambda ts: ops.sum_(ops.mul(ts[0], ts[1])), [a, row])


@_settings
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(2, 5),
)
def test_matmul_gradcheck_random_dims(m, k, n):
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    check_gradients(
        lambda ts: ops.sum_(ops.matmul(ts[0], ts[1])),
        [rng.normal(size=(m, k)), rng.normal(size=(k, n))],
    )


@_settings
@given(small_array())
def test_softmax_rows_are_distributions(a):
    out = ops.softmax(Tensor(a)).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(a.shape[0]), atol=1e-12)


@_settings
@given(small_array())
def test_backward_linearity_in_seed(a):
    """backward(2g) accumulates exactly twice backward(g)."""
    x1 = Tensor(a, requires_grad=True)
    y1 = ops.tanh(x1)
    y1.backward(np.ones_like(a))
    x2 = Tensor(a, requires_grad=True)
    y2 = ops.tanh(x2)
    y2.backward(2.0 * np.ones_like(a))
    np.testing.assert_allclose(x2.grad, 2.0 * x1.grad, atol=1e-12)


@_settings
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        elements=finite_floats,
    )
)
def test_unbroadcast_inverts_broadcast(a):
    """For any shape, broadcasting then unbroadcasting sums correctly."""
    target_shape = (1, a.shape[1], 1)
    grad = np.ones_like(a)
    out = unbroadcast(grad, target_shape)
    assert out.shape == target_shape
    assert out.sum() == grad.size


@_settings
@given(small_array())
def test_sum_then_backward_gives_ones(a):
    x = Tensor(a, requires_grad=True)
    ops.sum_(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones_like(a))


@_settings
@given(small_array())
def test_mean_grad_is_uniform(a):
    x = Tensor(a, requires_grad=True)
    ops.mean(x).backward()
    np.testing.assert_allclose(x.grad, np.full_like(a, 1.0 / a.size))
