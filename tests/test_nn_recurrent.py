"""Tests for the LSTM cell and the unrolled LSTM."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, ops
from repro.nn import LSTM, LSTMCell


class TestLSTMCell:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng)
        h, c = cell(
            Tensor(rng.normal(size=(3, 4))),
            (Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6)))),
        )
        assert h.shape == (3, 6)
        assert c.shape == (3, 6)

    def test_forget_gate_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 6, rng)
        np.testing.assert_array_equal(cell.bias.data[6:12], np.ones(6))
        np.testing.assert_array_equal(cell.bias.data[:6], np.zeros(6))

    def test_parameter_count(self, rng):
        cell = LSTMCell(4, 6, rng)
        # w_x: 4*24, w_h: 6*24, bias: 24
        assert sum(p.size for p in cell.parameters()) == 4 * 24 + 6 * 24 + 24

    def test_cell_state_carries_information(self, rng):
        cell = LSTMCell(2, 3, rng)
        x = Tensor(rng.normal(size=(1, 2)))
        zero = (Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 3))))
        h1, c1 = cell(x, zero)
        h2, c2 = cell(x, (h1, c1))
        # A second step with state should differ from the first.
        assert not np.allclose(h1.data, h2.data)

    def test_gradcheck_through_two_steps(self, rng):
        cell = LSTMCell(2, 2, rng)
        x1, x2 = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))

        def fn(ts):
            cell.w_x, cell.w_h, cell.bias = ts
            state = (Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))))
            h, c = cell(Tensor(x1), state)
            h, c = cell(Tensor(x2), (h, c))
            return ops.sum_(h)

        check_gradients(
            fn,
            [cell.w_x.data.copy(), cell.w_h.data.copy(), cell.bias.data.copy()],
            rtol=1e-3,
        )


class TestLSTM:
    def test_final_state_shape(self, rng):
        lstm = LSTM(5, 7, num_layers=2, rng=rng)
        out = lstm(Tensor(rng.normal(size=(3, 4, 5))))
        assert out.shape == (3, 7)

    def test_sequence_output_shape(self, rng):
        lstm = LSTM(5, 7, num_layers=1, rng=rng)
        out = lstm(Tensor(rng.normal(size=(3, 4, 5))), return_sequence=True)
        assert out.shape == (3, 4, 7)

    def test_rejects_non_3d_input(self, rng):
        lstm = LSTM(5, 7, num_layers=1, rng=rng)
        with pytest.raises(ValueError, match="batch, time, features"):
            lstm(Tensor(np.zeros((3, 5))))

    def test_layer_stacking_dimensions(self, rng):
        lstm = LSTM(5, 7, num_layers=3, rng=rng)
        assert lstm.cells[0].input_size == 5
        assert lstm.cells[1].input_size == 7
        assert lstm.cells[2].input_size == 7

    def test_sequence_final_matches_final_state(self, rng):
        lstm = LSTM(4, 5, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 4)))
        final = lstm(x)
        sequence = lstm(x, return_sequence=True)
        np.testing.assert_allclose(sequence.data[:, -1, :], final.data)

    def test_gradients_flow_to_all_layers(self, rng):
        lstm = LSTM(3, 4, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 3)))
        ops.sum_(lstm(x)).backward()
        grads = lstm.flat_grad()
        assert grads.shape == (lstm.num_parameters(),)
        assert np.abs(grads).sum() > 0
        # First layer's gradients must be non-zero too (BPTT reaches it).
        first_layer_size = sum(p.size for p in lstm.cells[0].parameters())
        assert np.abs(grads[:first_layer_size]).sum() > 0

    def test_deterministic_given_seed(self):
        a = LSTM(3, 4, 2, np.random.default_rng(9))
        b = LSTM(3, 4, 2, np.random.default_rng(9))
        np.testing.assert_array_equal(a.get_flat(), b.get_flat())
