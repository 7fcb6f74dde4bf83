"""Recurrent layers: the LSTM cell and its sequence wrapper.

The paper's non-convex workloads are LSTM classifiers (Shakespeare next-char
prediction, Sent140 sentiment).  These are implemented here on top of the
autograd engine with standard formulations; the unrolled wrappers return the
full hidden-state sequence or just the final state.

:class:`LSTM` runs in graph mode, one autograd node per op per timestep:
slow but trivially auditable, it is the gradcheck reference and the
``backend="graph"`` execution of the LSTM models.  Their ``"fused"``
backend keeps an :class:`LSTM` for its parameters (same initialization,
same flat layout) and runs them through
:func:`repro.autograd.fused_lstm` (evaluation) and the stacked training
kernel (:mod:`repro.autograd.stacked_lstm`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..autograd import Tensor, ops
from . import init
from .module import Module, ModuleList


class LSTMCell(Module):
    """Standard LSTM cell with a fused gate matrix.

    Gate layout along the last axis is ``[input, forget, cell, output]``.
    The forget-gate bias is initialized to 1.0, the usual trick that lets
    gradients flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(
            init.glorot_uniform(rng, (input_size, 4 * hidden_size)), requires_grad=True
        )
        self.w_h = Tensor(
            init.glorot_uniform(rng, (hidden_size, 4 * hidden_size)), requires_grad=True
        )
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        """One step: ``(h, c) -> (h', c')`` for a batch of inputs.

        Parameters
        ----------
        x:
            ``(batch, input_size)`` input at this time step.
        state:
            Tuple ``(h, c)`` each of shape ``(batch, hidden_size)``.
        """
        h, c = state
        hs = self.hidden_size
        gates = ops.add(
            ops.add(ops.matmul(x, self.w_x), ops.matmul(h, self.w_h)), self.bias
        )
        i = ops.sigmoid(gates[:, 0 * hs : 1 * hs])
        f = ops.sigmoid(gates[:, 1 * hs : 2 * hs])
        g = ops.tanh(gates[:, 2 * hs : 3 * hs])
        o = ops.sigmoid(gates[:, 3 * hs : 4 * hs])
        c_next = ops.add(ops.mul(f, c), ops.mul(i, g))
        h_next = ops.mul(o, ops.tanh(c_next))
        return h_next, c_next


class LSTM(Module):
    """Multi-layer LSTM unrolled over a ``(batch, time, features)`` input.

    Parameters
    ----------
    input_size:
        Feature width of the input sequence.
    hidden_size:
        Hidden width of every layer.
    num_layers:
        Number of stacked LSTM layers.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        cells: List[LSTMCell] = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(LSTMCell(in_size, hidden_size, rng))
        self.cells = ModuleList(cells)

    def forward(
        self, x: Tensor, return_sequence: bool = False
    ) -> Tensor:
        """Run the stack over time.

        Parameters
        ----------
        x:
            ``(batch, time, input_size)`` tensor.
        return_sequence:
            If ``True`` return all top-layer hidden states stacked as
            ``(batch, time, hidden_size)``; otherwise return only the final
            hidden state ``(batch, hidden_size)``.
        """
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features), got {x.shape}")
        batch, time, _ = x.shape
        zeros = np.zeros((batch, self.hidden_size))
        states: List[Tuple[Tensor, Tensor]] = [
            (Tensor(zeros.copy()), Tensor(zeros.copy())) for _ in range(self.num_layers)
        ]
        outputs: List[Tensor] = []
        for t in range(time):
            step = x[:, t, :]
            for layer, cell in enumerate(self.cells):
                h, c = cell(step, states[layer])
                states[layer] = (h, c)
                step = h
            outputs.append(step)
        if return_sequence:
            return ops.stack(outputs, axis=1)
        return outputs[-1]
