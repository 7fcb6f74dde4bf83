"""Tests for fused loss functions."""

import numpy as np
import pytest
from scipy.special import log_softmax as scipy_log_softmax

from repro.autograd import (
    Tensor,
    binary_cross_entropy_with_logits,
    check_gradients,
    mse_loss,
    softmax_cross_entropy,
)


def _rng():
    return np.random.default_rng(7)


class TestSoftmaxCrossEntropy:
    def test_matches_scipy(self):
        logits = _rng().normal(size=(6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        expected = -scipy_log_softmax(logits, axis=1)[np.arange(6), labels].mean()
        got = softmax_cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_gradcheck(self, reduction):
        logits = _rng().normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        check_gradients(
            lambda ts: softmax_cross_entropy(ts[0], labels, reduction=reduction),
            [logits],
        )

    def test_reduction_none_shape(self):
        logits = _rng().normal(size=(5, 3))
        labels = np.zeros(5, dtype=int)
        out = softmax_cross_entropy(Tensor(logits), labels, reduction="none")
        assert out.shape == (5,)

    def test_sum_equals_n_times_mean(self):
        logits = _rng().normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        mean = softmax_cross_entropy(Tensor(logits), labels, reduction="mean").item()
        total = softmax_cross_entropy(Tensor(logits), labels, reduction="sum").item()
        assert total == pytest.approx(4 * mean)

    def test_sample_weight(self):
        logits = _rng().normal(size=(2, 3))
        labels = np.array([0, 1])
        weighted = softmax_cross_entropy(
            Tensor(logits), labels, sample_weight=np.array([2.0, 0.0])
        ).item()
        per = softmax_cross_entropy(Tensor(logits), labels, reduction="none").data
        assert weighted == pytest.approx(2.0 * per[0] / 2)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(_rng().normal(size=(3, 4)), requires_grad=True)
        labels = np.array([1, 2, 0])
        softmax_cross_entropy(logits, labels, reduction="sum").backward()
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        expected = probs.copy()
        expected[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, expected)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="batch, classes"):
            softmax_cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="labels shape"):
            softmax_cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(5, dtype=int))

    def test_rejects_unknown_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            softmax_cross_entropy(
                Tensor(np.zeros((2, 2))), np.zeros(2, dtype=int), reduction="avg"
            )

    def test_stable_for_extreme_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]))
        out = softmax_cross_entropy(logits, np.array([0]))
        assert out.item() == pytest.approx(0.0, abs=1e-9)


class TestBinaryCrossEntropy:
    def test_matches_reference(self):
        x = _rng().normal(size=(6,))
        y = (_rng().random(6) > 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-x))
        expected = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        got = binary_cross_entropy_with_logits(Tensor(x), y).item()
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_gradcheck(self, reduction):
        x = _rng().normal(size=(5, 1))
        y = np.array([[0.0], [1.0], [1.0], [0.0], [1.0]])
        check_gradients(
            lambda ts: binary_cross_entropy_with_logits(ts[0], y, reduction=reduction),
            [x],
        )

    def test_stable_for_extreme_logits(self):
        out = binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert out.item() == pytest.approx(0.0, abs=1e-9)

    def test_reduction_none(self):
        x = np.zeros(3)
        out = binary_cross_entropy_with_logits(Tensor(x), np.ones(3), reduction="none")
        np.testing.assert_allclose(out.data, np.full(3, np.log(2.0)))

    def test_rejects_unknown_reduction(self):
        with pytest.raises(ValueError, match="reduction"):
            binary_cross_entropy_with_logits(Tensor(np.zeros(2)), np.zeros(2), reduction="x")


class TestMSEAndNorm:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        assert mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(5.0)

    def test_mse_gradcheck(self):
        pred = _rng().normal(size=(4, 2))
        target = _rng().normal(size=(4, 2))
        check_gradients(lambda ts: mse_loss(ts[0], target), [pred])

    @pytest.mark.parametrize("reduction,expected", [("sum", 10.0), ("mean", 5.0)])
    def test_mse_reductions(self, reduction, expected):
        pred = Tensor(np.array([1.0, 3.0]))
        out = mse_loss(pred, np.zeros(2), reduction=reduction)
        assert out.item() == pytest.approx(expected)

    def test_mse_rejects_unknown_reduction(self):
        with pytest.raises(ValueError):
            mse_loss(Tensor(np.zeros(2)), np.zeros(2), reduction="bogus")
