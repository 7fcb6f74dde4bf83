"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class — a thin wrapper around
``numpy.ndarray`` that records a computational graph as operations are
applied and supports reverse-mode differentiation via :meth:`Tensor.backward`.

The engine is deliberately small: it implements exactly the operations
needed by the neural models in :mod:`repro.models` (dense layers, LSTMs,
embeddings, softmax cross-entropy).  Every operation's gradient is verified
against central finite differences in the test suite
(``tests/test_autograd_ops.py``).

Design notes
------------
* Graphs are built eagerly.  Each ``Tensor`` produced by an operation holds
  references to its parent tensors and a closure that accumulates gradients
  into those parents.
* Gradients are plain ``numpy.ndarray`` objects (not Tensors); higher-order
  differentiation is out of scope for this reproduction.
* Broadcasting follows NumPy semantics; gradients are un-broadcast by
  summing over the broadcast axes (see :func:`unbroadcast`).
* Inside :func:`no_grad` no graph is built at all: evaluation is inference.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Compute values only: inside the block every op returns a constant.

    No backward closure is attached and nothing is saved for one, so
    :func:`~repro.autograd.fused_lstm` runs its tape-free forward.  The
    values are bit-identical to the same ops outside the block.  The switch
    is per thread and nests.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``, inverting NumPy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.

    Parameters
    ----------
    grad:
        Gradient with respect to the broadcast result.
    shape:
        The original (pre-broadcast) shape of the operand.

    Returns
    -------
    numpy.ndarray
        Gradient with respect to the original operand, of shape ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload.  Converted to ``float64`` unless it is already a
        floating ndarray.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.

    Attributes
    ----------
    data : numpy.ndarray
        The underlying array.
    grad : numpy.ndarray or None
        Accumulated gradient, same shape as ``data``.  ``None`` until a
        backward pass touches this tensor.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_grad_buffer",
        "_cached_order",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        if isinstance(data, Tensor):  # defensive: unwrap accidental nesting
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: Tuple[Tensor, ...] = _parents
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = _backward_fn
        # Reused across backward passes so long-lived tensors (parameters)
        # never reallocate their gradient storage.
        self._grad_buffer: Optional[np.ndarray] = None
        self._cached_order: Optional[list] = None

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (alias for :meth:`transpose` with no axes)."""
        return self.transpose()

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        Constant leaves (``requires_grad=False`` and no parents) discard
        incoming gradients — they neither store nor propagate them.

        The first contribution of a backward pass is *copied* into a
        preallocated per-tensor buffer (allocated once, reused across
        passes) rather than added onto a freshly zeroed array; subsequent
        contributions accumulate in place.  This removes one allocation and
        one full array pass per touched node per backward.
        """
        if not (self.requires_grad or self._parents):
            return
        if self.grad is None:
            buf = self._grad_buffer
            if buf is None or buf.shape != self.data.shape:
                buf = np.empty(self.data.shape, dtype=np.float64)
                self._grad_buffer = buf
            np.copyto(buf, grad)
            self.grad = buf
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``.

        The underlying buffer is kept and reused by the next backward pass;
        callers that need to retain a gradient across passes should copy it
        first.
        """
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` for scalar tensors; required
            for non-scalar outputs.

        Raises
        ------
        ValueError
            If this tensor is non-scalar and no seed gradient is given.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() on a non-scalar tensor requires an explicit "
                    f"seed gradient (shape {self.shape})"
                )
            grad = np.ones_like(self.data, dtype=np.float64)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.shape}"
                )

        # A tensor's parents are fixed at construction, so the traversal
        # order from a given root never changes — cache it so repeated
        # backward calls on the same graph skip the graph walk.
        order = self._cached_order
        if order is None:
            order = self._toposort()
            if self._parents:
                self._cached_order = order
        self._accumulate(grad)
        for node in order:
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def _toposort(self) -> list:
        """Return graph nodes in reverse topological order from ``self``."""
        visited: set = set()
        order: list = []

        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # Operator overloads (implementations live in repro.autograd.ops)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.add(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.add(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.mul(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.mul(other, self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from . import ops

        return ops.div(other, self)

    def __neg__(self) -> "Tensor":
        from . import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from . import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from . import ops

        return ops.matmul(self, other)

    def __getitem__(self, index) -> "Tensor":
        from . import ops

        return ops.getitem(self, index)

    # Named methods ----------------------------------------------------- #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum of elements along ``axis`` (all elements if ``None``)."""
        from . import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean along ``axis`` (all elements if ``None``)."""
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        """Return a tensor with the same data viewed with a new shape."""
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        """Permute dimensions (reverse them if ``axes`` is ``None``)."""
        from . import ops

        return ops.transpose(self, axes)

    def exp(self) -> "Tensor":
        """Element-wise exponential."""
        from . import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        """Element-wise natural logarithm."""
        from . import ops

        return ops.log(self)

    def tanh(self) -> "Tensor":
        """Element-wise hyperbolic tangent."""
        from . import ops

        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        """Element-wise logistic sigmoid."""
        from . import ops

        return ops.sigmoid(self)

    def relu(self) -> "Tensor":
        """Element-wise rectified linear unit."""
        from . import ops

        return ops.relu(self)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def parameters_of(tensors: Iterable[Tensor]) -> list:
    """Filter an iterable down to tensors with ``requires_grad=True``."""
    return [t for t in tensors if isinstance(t, Tensor) and t.requires_grad]
