"""Tests for Dense, Embedding and initializers."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, ops
from repro.nn import Dense, Embedding, init


class TestDense:
    def test_output_shape(self, rng):
        layer = Dense(5, 3, rng)
        out = layer(Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_identity(self, rng):
        layer = Dense(3, 3, rng)
        layer.weight.data = np.eye(3)
        layer.bias.data = np.array([1.0, 2.0, 3.0])
        out = layer(Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_activations_applied(self, rng, activation):
        layer = Dense(2, 2, rng, activation=activation)
        layer.weight.data = np.eye(2)
        layer.bias.data = np.zeros(2)
        x = np.array([[-1.0, 1.0]])
        out = layer(Tensor(x)).data
        ref = {
            "relu": np.maximum(x, 0),
            "tanh": np.tanh(x),
            "sigmoid": 1 / (1 + np.exp(-x)),
        }[activation]
        np.testing.assert_allclose(out, ref)

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ValueError, match="activation"):
            Dense(2, 2, rng, activation="gelu")

    def test_no_bias(self, rng):
        layer = Dense(2, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_parameter_gradients_flow(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))

        def fn(ts):
            layer.weight, layer.bias = ts[0], ts[1]
            return ops.sum_(ops.tanh(layer(Tensor(x))))

        check_gradients(fn, [layer.weight.data.copy(), layer.bias.data.copy()])


class TestEmbedding:
    def test_lookup_shape(self, rng):
        emb = Embedding(10, 4, rng)
        out = emb(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, 4)

    def test_trainable_registers_parameter(self, rng):
        assert len(Embedding(5, 2, rng, trainable=True).parameters()) == 1

    def test_frozen_has_no_parameters(self, rng):
        emb = Embedding(5, 2, rng, trainable=False)
        assert emb.parameters() == []
        # but lookups still work
        assert emb(np.array([0, 1])).shape == (2, 2)

    def test_frozen_table_excluded_from_flat(self, rng):
        emb = Embedding(5, 2, rng, trainable=False)
        assert emb.get_flat().shape == (0,)


class TestInit:
    def test_zeros(self):
        np.testing.assert_array_equal(init.zeros((2, 2)), np.zeros((2, 2)))

    def test_normal_std(self, rng):
        w = init.normal(rng, (5000,), std=0.5)
        assert abs(w.std() - 0.5) < 0.05

    def test_glorot_bounds(self, rng):
        w = init.glorot_uniform(rng, (100, 50))
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (100, 50)
