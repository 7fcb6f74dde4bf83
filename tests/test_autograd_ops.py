"""Gradient and forward-value tests for every autograd operation."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, ops


def _rng():
    return np.random.default_rng(42)


class TestElementwiseArithmetic:
    @pytest.mark.parametrize(
        "shapes",
        [((3,), (3,)), ((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 3), (1, 3)), ((4, 1), (1, 5))],
    )
    def test_add_gradcheck(self, shapes):
        rng = _rng()
        a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
        check_gradients(lambda ts: ops.sum_(ops.add(ts[0], ts[1])), [a, b])

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((2, 3), (3,)), ((4, 1), (1, 5))])
    def test_sub_gradcheck(self, shapes):
        rng = _rng()
        a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
        check_gradients(lambda ts: ops.sum_(ops.sub(ts[0], ts[1])), [a, b])

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((2, 3), (3,)), ((4, 1), (1, 5))])
    def test_mul_gradcheck(self, shapes):
        rng = _rng()
        a, b = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
        check_gradients(lambda ts: ops.sum_(ops.mul(ts[0], ts[1])), [a, b])

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((2, 3), (3,))])
    def test_div_gradcheck(self, shapes):
        rng = _rng()
        a = rng.normal(size=shapes[0])
        b = rng.uniform(0.5, 2.0, size=shapes[1])  # away from zero
        check_gradients(lambda ts: ops.sum_(ops.div(ts[0], ts[1])), [a, b])

    def test_neg_gradcheck(self):
        check_gradients(lambda ts: ops.sum_(ops.neg(ts[0])), [_rng().normal(size=(3, 2))])

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 0.5])
    def test_power_gradcheck(self, exponent):
        a = _rng().uniform(0.5, 2.0, size=(4,))
        check_gradients(lambda ts: ops.sum_(ops.power(ts[0], exponent)), [a])

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ops.power(Tensor([1.0]), Tensor([2.0]))

    def test_add_forward(self):
        out = ops.add(Tensor([1.0, 2.0]), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [11.0, 22.0])

    def test_div_forward(self):
        out = ops.div(Tensor([4.0]), Tensor([2.0]))
        np.testing.assert_array_equal(out.data, [2.0])


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op", [ops.exp, ops.tanh, ops.sigmoid]
    )
    def test_smooth_gradcheck(self, op):
        a = _rng().normal(size=(3, 4))
        check_gradients(lambda ts: ops.sum_(op(ts[0])), [a])

    def test_log_gradcheck(self):
        a = _rng().uniform(0.5, 3.0, size=(3, 4))
        check_gradients(lambda ts: ops.sum_(ops.log(ts[0])), [a])

    def test_relu_gradcheck_away_from_kink(self):
        a = _rng().normal(size=(3, 4))
        a[np.abs(a) < 0.1] = 0.5  # avoid the nondifferentiable point
        check_gradients(lambda ts: ops.sum_(ops.relu(ts[0])), [a])

    def test_relu_forward(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_zero_grad_in_negative_region(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        ops.sum_(ops.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_sigmoid_stable_at_large_inputs(self):
        out = ops.sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out.data))

    def test_sigmoid_forward_at_zero(self):
        assert ops.sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)

    def test_tanh_forward(self):
        np.testing.assert_allclose(
            ops.tanh(Tensor([0.0, 1.0])).data, np.tanh([0.0, 1.0])
        )

    def test_clip_forward_and_grad(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        out = ops.clip(x, -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.5, 1.0])
        ops.sum_(out).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestMatmul:
    def test_2d_2d_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.sum_(ops.matmul(ts[0], ts[1])),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
        )

    def test_1d_2d_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.sum_(ops.matmul(ts[0], ts[1])),
            [rng.normal(size=(4,)), rng.normal(size=(4, 2))],
        )

    def test_2d_1d_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.sum_(ops.matmul(ts[0], ts[1])),
            [rng.normal(size=(3, 4)), rng.normal(size=(4,))],
        )

    def test_1d_1d_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.matmul(ts[0], ts[1]),
            [rng.normal(size=(5,)), rng.normal(size=(5,))],
        )

    def test_forward_value(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(
            ops.matmul(Tensor(a), Tensor(b)).data, a @ b
        )

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="1-D and 2-D"):
            ops.matmul(Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros((2, 2))))


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, False), (0, True), ((0, 1), False)])
    def test_sum_gradcheck(self, axis, keepdims):
        a = _rng().normal(size=(3, 4))
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.sum_(ts[0], axis=axis, keepdims=keepdims),
                                        ops.sum_(ts[0], axis=axis, keepdims=keepdims))),
            [a],
        )

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_mean_gradcheck(self, axis, keepdims):
        a = _rng().normal(size=(3, 4))
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.mean(ts[0], axis=axis, keepdims=keepdims),
                                        ops.mean(ts[0], axis=axis, keepdims=keepdims))),
            [a],
        )

    def test_mean_forward(self):
        a = np.arange(6.0).reshape(2, 3)
        assert ops.mean(Tensor(a)).item() == pytest.approx(a.mean())

    def test_negative_axis_sum(self):
        a = _rng().normal(size=(2, 3))
        out = ops.sum_(Tensor(a), axis=-1)
        np.testing.assert_allclose(out.data, a.sum(axis=-1))


class TestShapeOps:
    def test_reshape_gradcheck(self):
        a = _rng().normal(size=(2, 6))
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.reshape(ts[0], (3, 4)), 2.0)), [a]
        )

    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        ops.sum_(ops.reshape(x, (2, 3))).backward()
        assert x.grad.shape == (6,)

    def test_transpose_gradcheck(self):
        a = _rng().normal(size=(2, 3))
        check_gradients(lambda ts: ops.sum_(ops.mul(ops.transpose(ts[0]), 3.0)), [a])

    def test_transpose_with_axes(self):
        a = _rng().normal(size=(2, 3, 4))
        out = ops.transpose(Tensor(a), (2, 0, 1))
        assert out.shape == (4, 2, 3)

    def test_transpose_axes_gradcheck(self):
        a = _rng().normal(size=(2, 3, 4))
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.transpose(ts[0], (2, 0, 1)), 1.5)), [a]
        )

    def test_getitem_slice_gradcheck(self):
        a = _rng().normal(size=(4, 3))
        check_gradients(lambda ts: ops.sum_(ts[0][1:3, :2]), [a])

    def test_getitem_fancy_repeated_indices_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        out = x[np.array([0, 0, 2])]
        ops.sum_(out).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])

    def test_concatenate_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.concatenate(ts, axis=0), 2.0)),
            [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))],
        )

    def test_concatenate_axis1(self):
        a, b = np.zeros((2, 1)), np.ones((2, 2))
        out = ops.concatenate([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 3)

    def test_stack_gradcheck(self):
        rng = _rng()
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.stack(ts, axis=0), 2.0)),
            [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))],
        )

    def test_stack_new_axis(self):
        a = Tensor(np.zeros((2, 3)))
        out = ops.stack([a, a, a], axis=1)
        assert out.shape == (2, 3, 3)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = ops.softmax(Tensor(_rng().normal(size=(5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_softmax_gradcheck(self):
        a = _rng().normal(size=(3, 4))
        check_gradients(
            lambda ts: ops.sum_(ops.mul(ops.softmax(ts[0]), np.arange(4.0))), [a]
        )

    def test_softmax_invariant_to_shift(self):
        a = _rng().normal(size=(2, 5))
        out1 = ops.softmax(Tensor(a)).data
        out2 = ops.softmax(Tensor(a + 100.0)).data
        np.testing.assert_allclose(out1, out2)


class TestEmbedding:
    def test_forward_shape(self):
        w = Tensor(_rng().normal(size=(10, 4)))
        out = ops.embedding(w, np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_forward_values(self):
        w = Tensor(np.arange(8.0).reshape(4, 2))
        out = ops.embedding(w, np.array([3, 0]))
        np.testing.assert_array_equal(out.data, [[6.0, 7.0], [0.0, 1.0]])

    def test_gradient_accumulates_repeated_tokens(self):
        w = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = ops.embedding(w, np.array([1, 1, 3]))
        ops.sum_(out).backward()
        np.testing.assert_array_equal(w.grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(w.grad[3], [1.0, 1.0])
        np.testing.assert_array_equal(w.grad[0], [0.0, 0.0])

    def test_gradcheck(self):
        idx = np.array([[0, 2], [1, 1]])
        w = _rng().normal(size=(3, 4))
        check_gradients(lambda ts: ops.sum_(ops.embedding(ts[0], idx)), [w])

    def test_rejects_float_indices(self):
        w = Tensor(np.zeros((3, 2)))
        with pytest.raises(TypeError, match="integers"):
            ops.embedding(w, np.array([0.5]))
