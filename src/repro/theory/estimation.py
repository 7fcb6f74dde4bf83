"""Empirical estimation of the theory's constants.

The convergence results of Section 4 are stated in terms of constants a
practitioner never knows exactly: the smoothness ``L`` of the local
objectives, the dissimilarity bound ``B`` (Assumption 1), and the local
inexactness ``gamma``.  These estimators measure them on a concrete
federation so the Theorem 4 calculators in
:mod:`repro.theory.convergence` can be applied to real runs (as done in
``benchmarks/ablations/test_theory_constants.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.client import Client
from ..core.dissimilarity import measure_dissimilarity
from ..models.base import FederatedModel


def estimate_lipschitz(
    model: FederatedModel,
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    center: Optional[np.ndarray] = None,
    num_pairs: int = 20,
    radius: float = 1.0,
) -> float:
    """Lower-bound estimate of the gradient-Lipschitz constant ``L``.

    Samples random pairs of points within ``radius`` of ``center`` and
    returns the largest observed ratio
    ``||∇F(w1) − ∇F(w2)|| / ||w1 − w2||``.  This is a *lower* bound on the
    true ``L``; more pairs tighten it.

    Parameters
    ----------
    model:
        Loss/gradient oracle over the flat parameter vector.
    X, y:
        The data defining ``F``.
    rng:
        Randomness for pair sampling.
    center:
        Region center (defaults to the model's current parameters).
    num_pairs:
        Number of random pairs to probe.
    radius:
        Sampling radius around the center.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    base = (
        np.asarray(center, dtype=np.float64)
        if center is not None
        else model.get_params()
    )
    best = 0.0
    for _ in range(num_pairs):
        w1 = base + rng.normal(scale=radius, size=base.shape)
        w2 = base + rng.normal(scale=radius, size=base.shape)
        denom = float(np.linalg.norm(w1 - w2))
        if denom == 0.0:
            continue
        model.set_params(w1)
        g1 = model.gradient(X, y)
        model.set_params(w2)
        g2 = model.gradient(X, y)
        ratio = float(np.linalg.norm(g1 - g2)) / denom
        best = max(best, ratio)
    model.set_params(base)
    return best


def logistic_lipschitz_bound(X: np.ndarray) -> float:
    """Closed-form smoothness bound for multinomial logistic regression.

    For softmax cross-entropy the Hessian with respect to the scores is
    bounded by ``1/2 I`` (actually ``1/2`` on the simplex), so the loss as
    a function of ``W`` is ``L``-smooth with
    ``L <= (1/2) * lambda_max(X^T X) / n``.

    Parameters
    ----------
    X:
        ``(n, d)`` design matrix of the dataset being bounded.
    """
    n = len(X)
    if n == 0:
        raise ValueError("empty design matrix")
    gram = (X.T @ X) / n
    return 0.5 * float(np.linalg.eigvalsh(gram)[-1])


@dataclass(frozen=True)
class ConstantEstimates:
    """Measured constants for a federation at a point ``w``.

    Attributes
    ----------
    B:
        Measured dissimilarity ``B(w)`` (Definition 3).
    gradient_variance:
        ``E_k ||∇F_k(w) − ∇f(w)||²`` (Corollary 10's ``sigma^2`` at ``w``).
    L:
        Estimated smoothness constant.
    global_gradient_norm:
        ``||∇f(w)||``, useful for choosing the stationarity target ``eps``.
    """

    B: float
    gradient_variance: float
    L: float
    global_gradient_norm: float


def estimate_constants(
    clients: Sequence[Client],
    w: np.ndarray,
    rng: np.random.Generator,
    num_pairs: int = 10,
    radius: float = 0.5,
    max_clients: Optional[int] = None,
) -> ConstantEstimates:
    """Measure ``B``, ``sigma^2`` and ``L`` for a federation at ``w``.

    ``L`` is estimated as the maximum per-client Lipschitz estimate over
    the devices ``B`` and ``sigma^2`` were measured on — all of them, or
    ``max_clients`` drawn at random (the theory assumes every ``F_k`` is
    L-smooth).
    """
    report = measure_dissimilarity(clients, w, max_clients=max_clients)
    L = 0.0
    for client in (clients[cid] for cid in report.devices):
        L = max(
            L,
            estimate_lipschitz(
                client.model,
                client.data.train_x,
                client.data.train_y,
                rng,
                center=np.asarray(w, dtype=np.float64),
                num_pairs=num_pairs,
                radius=radius,
            ),
        )
    return ConstantEstimates(
        B=report.b_value,
        gradient_variance=report.gradient_variance,
        L=L,
        global_gradient_norm=report.global_gradient_norm,
    )
