"""Minimal reverse-mode automatic differentiation engine.

This subpackage stands in for the TensorFlow substrate used by the original
FedProx implementation.  It provides a :class:`Tensor` type, a library of
differentiable operations, fused loss functions, finite-difference
gradient checking, and :func:`no_grad`, under which evaluation builds no
graph.
"""

from .tensor import Tensor, as_tensor, no_grad, unbroadcast
from . import ops
from .ops import (
    add,
    clip,
    concatenate,
    div,
    embedding,
    exp,
    getitem,
    log,
    log_softmax,
    matmul,
    max_,
    mean,
    mul,
    neg,
    power,
    relu,
    reshape,
    sigmoid,
    softmax,
    stack,
    sub,
    sum_,
    tanh,
    transpose,
)
from .functional import (
    FusedLSTMWorkspace,
    binary_cross_entropy_with_logits,
    fused_lstm,
    l2_norm_squared,
    mse_loss,
    softmax_cross_entropy,
)
from .gradcheck import check_gradients, numeric_gradient
from .stacked_lstm import (
    StackedLSTMWorkspace,
    stacked_lstm_backward,
    stacked_lstm_forward,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "unbroadcast",
    "ops",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "relu",
    "clip",
    "matmul",
    "sum_",
    "mean",
    "max_",
    "reshape",
    "transpose",
    "getitem",
    "concatenate",
    "stack",
    "log_softmax",
    "softmax",
    "embedding",
    "softmax_cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "l2_norm_squared",
    "fused_lstm",
    "FusedLSTMWorkspace",
    "StackedLSTMWorkspace",
    "stacked_lstm_forward",
    "stacked_lstm_backward",
    "check_gradients",
    "numeric_gradient",
]
