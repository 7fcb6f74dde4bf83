"""Differentiable operations on :class:`~repro.autograd.tensor.Tensor`.

Each function builds the forward result eagerly and attaches a backward
closure that distributes the incoming gradient to the operation's parents.
Gradient formulas follow the standard calculus; broadcasting is handled by
:func:`~repro.autograd.tensor.unbroadcast`.

Only tensors with ``requires_grad=True`` somewhere in their ancestry
propagate gradients; constant operands are folded into the closure without
creating graph edges, and inside ``no_grad()`` every result is a constant.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import ArrayLike, Tensor, _grad_mode, as_tensor, unbroadcast


def _needs_grad(*tensors: Tensor) -> bool:
    """True if any operand participates in gradient computation, outside
    :func:`~repro.autograd.tensor.no_grad`."""
    return _grad_mode.enabled and any(t.requires_grad or t._parents for t in tensors)


def _make(
    data: np.ndarray, parents: Tuple[Tensor, ...], backward_fn
) -> Tensor:
    """Construct a result tensor, attaching graph edges only when needed."""
    if _needs_grad(*parents):
        return Tensor(data, _parents=parents, _backward_fn=backward_fn)
    return Tensor(data)


# --------------------------------------------------------------------- #
# Elementwise arithmetic
# --------------------------------------------------------------------- #
def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Element-wise ``a + b`` with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad, a.shape))
        b._accumulate(unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward)


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Element-wise ``a - b`` with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad, a.shape))
        b._accumulate(unbroadcast(-grad, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Element-wise ``a * b`` with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad * b.data, a.shape))
        b._accumulate(unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def div(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Element-wise ``a / b`` with NumPy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        a._accumulate(unbroadcast(grad / b.data, a.shape))
        b._accumulate(unbroadcast(-grad * a.data / (b.data**2), b.shape))

    return _make(out_data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    """Element-wise negation ``-a``."""
    a = as_tensor(a)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(-grad)

    return _make(-a.data, (a,), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    """Element-wise power ``a ** exponent`` for a scalar exponent."""
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power() supports scalar exponents only")
    out_data = a.data**exponent

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * exponent * a.data ** (exponent - 1))

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Elementwise nonlinearities
# --------------------------------------------------------------------- #
def exp(a: Tensor) -> Tensor:
    """Element-wise exponential."""
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data)

    return _make(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Element-wise natural logarithm."""
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad / a.data)

    return _make(out_data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * (1.0 - out_data**2))

    return _make(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    """Element-wise logistic sigmoid, computed stably for large |x|."""
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    """Element-wise rectified linear unit ``max(a, 0)``."""
    a = as_tensor(a)
    mask = a.data > 0
    out_data = np.where(mask, a.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return _make(out_data, (a,), backward)


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Element-wise clamp of values into ``[low, high]``.

    The gradient is passed through only where values were not clipped
    (sub-gradient convention).
    """
    a = as_tensor(a)
    out_data = np.clip(a.data, low, high)
    mask = (a.data > low) & (a.data < high)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * mask)

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Linear algebra
# --------------------------------------------------------------------- #
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` for 2-D operands (or 1-D vectors).

    Supports the standard NumPy 1-D/2-D promotion rules.  Batched (>2-D)
    matmul is not needed by this codebase and is rejected explicitly.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim > 2 or b.ndim > 2:
        raise ValueError("matmul supports only 1-D and 2-D tensors")
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        ga: np.ndarray
        gb: np.ndarray
        if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar grad
            ga = grad * b.data
            gb = grad * a.data
        elif a.ndim == 1:  # (k,) @ (k, n) -> (n,)
            ga = b.data @ grad
            gb = np.outer(a.data, grad)
        elif b.ndim == 1:  # (m, k) @ (k,) -> (m,)
            ga = np.outer(grad, b.data)
            gb = a.data.T @ grad
        else:  # (m, k) @ (k, n)
            ga = grad @ b.data.T
            gb = a.data.T @ grad
        a._accumulate(ga)
        b._accumulate(gb)

    return _make(out_data, (a, b), backward)


# --------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------- #
def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum of elements over ``axis`` (all elements when ``None``)."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        g = grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis`` (all elements when ``None``)."""
    a = as_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[ax] for ax in axes]))

    def backward(grad: np.ndarray) -> None:
        g = grad / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


def max_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum over ``axis``; gradient flows to the (first) argmax entries.

    Ties split the gradient equally among tied maxima, which matches the
    sub-gradient convention used by mainstream frameworks.
    """
    a = as_tensor(a)
    out_data = a.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        expanded = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == expanded).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)
        g = grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(mask * g)

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------- #
def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    """View the tensor with a new shape (same number of elements)."""
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad.reshape(a.shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    """Permute dimensions (reversed when ``axes`` is ``None``)."""
    a = as_tensor(a)
    out_data = a.data.transpose(axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad.transpose(inverse))

    return _make(out_data, (a,), backward)


def getitem(a: Tensor, index) -> Tensor:
    """Basic and advanced indexing; gradient scatters back with accumulation.

    Uses ``np.add.at`` so that repeated indices (as produced by embedding
    lookups) accumulate correctly.
    """
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(a.data, dtype=np.float64)
        np.add.at(full, index, grad)
        a._accumulate(full)

    return _make(out_data, (a,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along an existing axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            t._accumulate(np.take(grad, i, axis=axis))

    return _make(out_data, tuple(tensors), backward)


# --------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------- #
def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(a))`` along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    softmax_vals = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return _make(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (grad - dot))

    return _make(out_data, (a,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` by integer ``indices``.

    Parameters
    ----------
    weight:
        ``(vocab, dim)`` embedding matrix.
    indices:
        Integer array of any shape; the result has shape
        ``indices.shape + (dim,)``.
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("embedding indices must be integers")
    out_data = weight.data[idx]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data, dtype=np.float64)
        np.add.at(full, idx.reshape(-1), grad.reshape(-1, weight.shape[1]))
        weight._accumulate(full)

    return _make(out_data, (weight,), backward)
