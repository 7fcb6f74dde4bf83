"""Minimal reverse-mode automatic differentiation engine.

This subpackage stands in for the TensorFlow substrate used by the original
FedProx implementation.  It provides a :class:`Tensor` type, a library of
differentiable operations, fused loss functions, finite-difference
gradient checking, and :func:`no_grad`, under which evaluation builds no
graph.
"""

from .. import _lazy

_lazy.attach(globals(), {
    ".tensor": ("Tensor", "as_tensor", "no_grad", "unbroadcast"),
    ".ops": (
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
        "reshape",
        "transpose",
        "getitem",
        "concatenate",
        "stack",
        "softmax",
        "embedding",
    ),
    ".functional": (
        "softmax_cross_entropy",
        "binary_cross_entropy_with_logits",
        "mse_loss",
        "fused_lstm",
    ),
    ".stacked_lstm": (
        "StackedLSTMWorkspace",
        "stacked_lstm_forward",
        "stacked_lstm_backward",
    ),
    ".gradcheck": ("check_gradients", "numeric_gradient"),
}, submodules=("ops",))
