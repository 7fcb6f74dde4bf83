"""Local-subproblem objectives, including the FedProx proximal surrogate.

The paper's local subproblem (Equation 2) is::

    h_k(w; w_t) = F_k(w) + (mu/2) * ||w - w_t||^2

:class:`LocalObjective` wraps a device's model and data into loss/gradient
oracles over the flat parameter vector; setting ``mu=0`` recovers the plain
FedAvg local objective ``F_k``.

An optional *linear correction term* ``<correction, w>`` supports the
FedDane baseline of Appendix B, whose local subproblem augments Equation 2
with the DANE gradient correction ``<grad_f_estimate - grad_F_k(w_t), w>``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

from ..models.base import FederatedModel

if TYPE_CHECKING:  # base.py imports this module
    from .base import BatchSchedule


class LocalObjective:
    """Oracle for ``h_k(w; w_ref) = F_k(w) + (mu/2)||w - w_ref||^2``.

    Parameters
    ----------
    model:
        Model whose parameters will be set to each query point ``w``.
        The objective owns the model for the duration of the solve; callers
        should not mutate it concurrently.
    X, y:
        The device's local training data, one row per sample (full
        arrays; solvers mini-batch through :meth:`minibatch_gradients`,
        the ``indices`` argument of :meth:`gradient` serves one-off
        queries).
    w_ref:
        The anchor point ``w_t`` (the global model at round start).  May be
        ``None`` when ``mu == 0``.
    mu:
        Proximal coefficient ``µ >= 0``.
    correction:
        Optional linear term coefficient vector; when given, the objective
        becomes ``F_k(w) + <correction, w> + (mu/2)||w - w_ref||^2`` (the
        FedDane subproblem).
    """

    def __init__(
        self,
        model: FederatedModel,
        X: np.ndarray,
        y: np.ndarray,
        w_ref: Optional[np.ndarray] = None,
        mu: float = 0.0,
        correction: Optional[np.ndarray] = None,
    ) -> None:
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        if mu > 0 and w_ref is None:
            raise ValueError("w_ref is required when mu > 0")
        if len(X) != len(y):
            raise ValueError(
                f"LocalObjective: X has {len(X)} rows but y has {len(y)} labels"
            )
        self.model = model
        self.X = X
        self.y = y
        self.mu = float(mu)
        self.w_ref = None if w_ref is None else np.asarray(w_ref, dtype=np.float64)
        self.correction = (
            None if correction is None else np.asarray(correction, dtype=np.float64)
        )
        self.n_samples = len(y)

    def loss(self, w: np.ndarray) -> float:
        """Full-data value of ``h_k`` at ``w``."""
        self.model.set_params(w)
        value = self.model.loss(self.X, self.y)
        if self.mu > 0:
            diff = w - self.w_ref
            value += 0.5 * self.mu * float(diff @ diff)
        if self.correction is not None:
            value += float(self.correction @ w)
        return value

    def gradient(
        self, w: np.ndarray, indices: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Gradient of ``h_k`` at ``w`` on a mini-batch (full data if ``None``)."""
        self.model.set_params(w)
        if indices is None:
            grad = self.model.gradient(self.X, self.y)
        else:
            grad = self.model.gradient(self.X[indices], self.y[indices])
        if self.mu > 0:
            grad = grad + self.mu * (w - self.w_ref)
        if self.correction is not None:
            grad = grad + self.correction
        return grad

    def minibatch_gradients(
        self,
        w: np.ndarray,
        schedule: "BatchSchedule",
        rng: np.random.Generator,
    ) -> Iterator[np.ndarray]:
        """Stream ``∇h_k`` over ``schedule``'s mini-batches, in order.

        The one path every mini-batch solver steps through.  ``w`` is the
        solver's float64 iterate and is *read in place*: the solver
        updates it between steps and each gradient is evaluated at its
        value at that moment.  Every yielded array is the same reused
        buffer (proximal term and correction already added), valid until
        the stream is advanced — copy it to keep it.  Draws from ``rng``
        exactly as ``schedule.batches(rng)`` does, and yields
        ``schedule.total`` gradients equal, bit for bit, to
        ``self.gradient(w, batch)`` on those batches.
        """
        stream = self.model.minibatch_gradients(
            w, self.X, self.y, schedule.epoch_orders(rng), schedule.batch_size
        )
        mu, w_ref, correction = self.mu, self.w_ref, self.correction
        if mu > 0:
            prox = np.empty_like(w)
        for grad in stream:
            if mu > 0:
                np.subtract(w, w_ref, out=prox)
                np.multiply(prox, mu, out=prox)
                grad += prox
            if correction is not None:
                grad += correction
            yield grad

    def loss_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        """Full-data value and gradient of ``h_k`` at ``w``."""
        self.model.set_params(w)
        value, grad = self.model.loss_and_gradient(self.X, self.y)
        if self.mu > 0:
            diff = w - self.w_ref
            value += 0.5 * self.mu * float(diff @ diff)
            grad = grad + self.mu * diff
        if self.correction is not None:
            value += float(self.correction @ w)
            grad = grad + self.correction
        return value, grad
