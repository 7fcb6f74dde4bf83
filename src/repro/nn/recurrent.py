"""Recurrent layers: vanilla RNN and LSTM cells plus sequence wrappers.

The paper's non-convex workloads are LSTM classifiers (Shakespeare next-char
prediction, Sent140 sentiment).  These are implemented here on top of the
autograd engine with standard formulations; the unrolled wrappers return the
full hidden-state sequence or just the final state.

Two executions of the same architecture exist:

* :class:`LSTM` — graph mode, one autograd node per op per timestep.  Slow
  but trivially auditable; this is the gradcheck reference.
* :class:`FusedLSTM` — identical parameters and initialization, but the
  unroll runs through :func:`repro.autograd.fused_lstm` (hand-derived
  forward/backward over a reusable activation tape).  Drop-in replacement:
  same flat parameter layout, same results to floating-point rounding.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..autograd import FusedLSTMWorkspace, Tensor, fused_lstm, ops
from . import init
from .module import Module, ModuleList


class RNNCell(Module):
    """Elman RNN cell: ``h' = tanh(x @ W_x + h @ W_h + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(init.glorot_uniform(rng, (input_size, hidden_size)), requires_grad=True)
        self.w_h = Tensor(init.orthogonal(rng, (hidden_size, hidden_size)), requires_grad=True)
        self.bias = Tensor(init.zeros((hidden_size,)), requires_grad=True)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        pre = ops.add(ops.add(ops.matmul(x, self.w_x), ops.matmul(h, self.w_h)), self.bias)
        return ops.tanh(pre)


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


class FusedLSTM(LSTM):
    """Drop-in :class:`LSTM` running the fused forward/backward kernels.

    Parameters, initialization, and the flat parameter layout are exactly
    those of :class:`LSTM` (the cells are built by the parent constructor
    from the same ``rng`` draws), so model state transfers between the two
    backends through ``get_flat`` / ``set_flat`` without translation.  Only
    :meth:`forward` differs: the whole unroll executes as one
    :func:`repro.autograd.fused_lstm` graph node over this module's
    persistent :class:`~repro.autograd.FusedLSTMWorkspace`, which reuses
    its activation tape across minibatches and local epochs.  A forward
    under :func:`repro.autograd.no_grad` (every evaluation) takes no tape
    and leaves the workspace as it was.

    The workspace makes the usual tape assumption: a forward's backward
    pass must run before the next gradient-taking forward through this
    module (the train-step pattern everywhere in this codebase).
    Violations raise instead of corrupting gradients.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(input_size, hidden_size, num_layers, rng)
        self._workspace = FusedLSTMWorkspace()

    def forward(self, x: Tensor, return_sequence: bool = False) -> Tensor:
        if x.ndim != 3:
            raise ValueError(f"expected (batch, time, features), got {x.shape}")
        return fused_lstm(
            x,
            [(cell.w_x, cell.w_h, cell.bias) for cell in self.cells],
            workspace=self._workspace,
            return_sequence=return_sequence,
        )
