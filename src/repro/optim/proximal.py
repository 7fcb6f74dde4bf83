"""Local-subproblem objectives, including the FedProx proximal surrogate.

The paper's local subproblem (Equation 2) is::

    h_k(w; w_t) = F_k(w) + (mu/2) * ||w - w_t||^2

:class:`LocalObjective` wraps a device's model and data into loss/gradient
oracles over the flat parameter vector; ``mu=0`` recovers FedAvg's ``F_k``.
An optional *linear correction term* ``<correction, w>`` is the DANE
gradient correction of the FedDane baseline (Appendix B).  Mini-batch
solvers split ``∇h_k(w) = ∇F_k(w) + mu * w - b`` (numerics epoch 3, DESIGN
§15): the stream yields the step-scaled ``∇F_k`` and the rule folds in
``mu`` and :func:`proximal_offset`'s ``b``, built once per solve.
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
        Model set to each query point ``w``; the objective owns it for the
        duration of the solve, so callers must not mutate it concurrently.
    X, y:
        The device's full local training data, one row per sample.
    w_ref:
        The anchor point ``w_t`` (the global model at round start), a
        ``(model.n_params,)`` vector.  May be ``None`` when ``mu == 0``.
    mu:
        Proximal coefficient ``µ >= 0``.
    correction:
        Optional ``(model.n_params,)`` linear term; the objective becomes
        ``F_k(w) + <correction, w> + (mu/2)||w - w_ref||^2`` (FedDane).
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
        self.w_ref, self.correction = (
            None if v is None else np.asarray(v, dtype=np.float64)
            for v in (w_ref, correction)
        )
        for name, v in (("w_ref", self.w_ref), ("correction", self.correction)):
            if v is not None and v.shape != (model.n_params,):  # never broadcast
                raise ValueError(
                    f"LocalObjective: {name} must have shape "
                    f"({model.n_params},), got {v.shape}"
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
        scale: float = 1.0,
    ) -> Iterator[np.ndarray]:
        """Stream ``scale * ∇F_k`` over ``schedule``'s mini-batches, in order.

        The solver applies ``mu`` and :func:`proximal_offset` itself.  ``w``
        is *read in place* at each step; each yield may be one reused
        buffer, valid until the next.  Draws ``rng`` as ``schedule.batches`` does.
        """
        return self.model.minibatch_gradients(
            w, self.X, self.y, schedule.epoch_orders(rng), schedule.batch_size,
            scale,
        )

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


def proximal_offset(
    mu: float, w_ref: Optional[np.ndarray], correction: Optional[np.ndarray], scale
) -> Optional[np.ndarray]:
    """``b = mu * w_ref - correction`` times the solver's ``gradient_scale``,
    fresh; ``None`` when ``mu == 0`` and there is no correction."""
    b = mu * w_ref if mu > 0 else None
    if correction is not None:
        b = -correction if b is None else b - correction
    if b is not None and scale != 1.0:
        b *= scale
    return b
