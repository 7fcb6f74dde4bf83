"""The autograd adapter: a :class:`repro.nn.Module` as a federated model.

Only the neural models (MLP, the two LSTMs) import this module, and with
it the autograd engine; the logistic model's closed-form path never does.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn.module import Module
from .base import FederatedModel


class NeuralModel(FederatedModel):
    """Adapter exposing a :class:`repro.nn.Module` through the flat interface.

    Subclasses must implement :meth:`build` (construct the module),
    :meth:`forward_loss` (batch -> scalar loss Tensor) and :meth:`predict`,
    which runs its forward under :func:`repro.autograd.no_grad` as
    :meth:`loss` does: evaluation builds no graph.

    Parameters
    ----------
    seed:
        Seed for weight initialization; subclasses store it with their other
        constructor arguments, so :meth:`fresh` and ledger replay rebuild an
        identically-initialized architecture.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.module: Module = self.build(np.random.default_rng(seed))

    @abc.abstractmethod
    def build(self, rng: np.random.Generator) -> Module:
        """Construct the underlying module."""

    @abc.abstractmethod
    def forward_loss(self, X: np.ndarray, y: np.ndarray) -> Tensor:
        """Mean loss as a scalar Tensor wired to the module parameters."""

    # Flat interface ------------------------------------------------------ #
    @property
    def n_params(self) -> int:
        return self.module.num_parameters()

    def get_params(self) -> np.ndarray:
        return self.module.get_flat()

    def set_params(self, w: np.ndarray) -> None:
        self.module.set_flat(w)

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        with no_grad():
            return float(self.forward_loss(X, y).data)

    def _one_row(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`stacked_gradient` on the one row ``W`` and one batch at
        its own height: the serial entry to the model's training kernel."""
        X, y = np.asarray(X), np.asarray(y)
        counts = np.full(1, float(len(y)))
        return self.stacked_gradient(W, X[None], y[None], None, counts)[0]

    def gradient(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.supports_stacked_local_solve:
            return self._one_row(self.get_params()[None], X, y).copy()
        return self.loss_and_gradient(X, y)[1]

    def loss_and_gradient(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """The graph's forward and backward; a model with a stacked kernel
        takes the loss from the evaluation forward and the gradient from
        its kernel (the same bits, one training path)."""
        if self.supports_stacked_local_solve:
            return self.loss(X, y), self.gradient(X, y)
        self.module.zero_grad()
        loss = self.forward_loss(X, y)
        loss.backward()
        return float(loss.data), self.module.flat_grad()

    def minibatch_gradients(
        self,
        w: np.ndarray,
        X: np.ndarray,
        y: np.ndarray,
        orders: Iterable[np.ndarray],
        batch_size: int,
        scale: float = 1.0,
    ) -> Iterator[np.ndarray]:
        """The default stream, each gradient multiplied by ``scale`` into
        the yielded buffer.  A model with a stacked kernel runs it on the
        one-row view of ``w`` (read in place), each batch at its own
        height; any other packs the graph's flat gradient straight into
        the buffer instead of concatenating and then copying it there."""
        out = np.empty(self.n_params, dtype=np.float64)
        batches = (
            order[start : start + batch_size]
            for order in orders
            for start in range(0, len(order), batch_size)
        )
        if self.supports_stacked_local_solve:
            W = w[None, :]
            for batch in batches:
                yield np.multiply(self._one_row(W, X[batch], y[batch]), scale, out=out)
            return
        module = self.module
        for batch in batches:
            self.set_params(w)
            module.zero_grad()
            self.forward_loss(X[batch], y[batch]).backward()
            module.flat_grad(out=out)
            if scale != 1.0:
                out *= scale
            yield out

    def spawn_replica(self) -> "NeuralModel":
        """Replica for a worker process.

        Parameter tensors are graph leaves (no backward closures), so a
        cloned module pickles cleanly.
        """
        return self.clone()
