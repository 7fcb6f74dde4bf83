"""Statistical dissimilarity measurements (Definition 3 and Figure 2/8).

Two quantities from the paper:

* **B-local dissimilarity** (Definition 3)::

      B(w) = sqrt( E_k ||∇F_k(w)||² / ||∇f(w)||² )

  with the convention ``B(w) = 1`` when the two agree (stationary points
  all local functions share).

* **Gradient variance** (Section 5.3.3 / bottom rows of Figures 2, 6, 8)::

      Var(w) = E_k ||∇F_k(w) − ∇f(w)||²

  which lower-bounds ``B`` via Corollary 10 (bounded-variance equivalence:
  ``B <= sqrt(1 + σ²/ε)``).

``E_k`` is the expectation over devices with masses ``p_k = n_k / n``.
Each ``∇F_k(w)`` is one :func:`repro.runtime.evaluation.device_values` read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..runtime.evaluation import device_values
from .client import Client


@dataclass
class DissimilarityReport:
    """Both dissimilarity statistics at a single point ``w``.

    Attributes
    ----------
    gradient_variance:
        ``E_k ||∇F_k(w) − ∇f(w)||²``.
    b_value:
        ``B(w)`` from Definition 3 (``inf`` when ``∇f(w) = 0`` but local
        gradients do not all vanish).
    global_gradient_norm:
        ``||∇f(w)||``.
    devices:
        The device ids measured, ascending.
    """

    gradient_variance: float
    b_value: float
    global_gradient_norm: float
    devices: Tuple[int, ...]


def measure_dissimilarity(
    clients: Sequence[Client],
    w: np.ndarray,
    max_clients: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> DissimilarityReport:
    """Compute gradient variance and ``B(w)`` over a federation.

    Parameters
    ----------
    clients:
        The federation's clients.
    w:
        Point at which to measure.
    max_clients:
        If given, a uniform subsample of devices is used (keeps the
        1000-device configurations tractable); masses are renormalized over
        the subsample.
    rng:
        Randomness for the subsample (defaults to a fixed generator so
        repeated measurements are comparable).
    """
    indices = np.arange(len(clients))
    if max_clients is not None and max_clients < len(clients):
        rng = rng if rng is not None else np.random.default_rng(0)
        indices = np.sort(rng.choice(len(clients), size=max_clients, replace=False))

    # A ClientPool's size metadata: a lazy store materializes no device here.
    sizes = getattr(clients, "train_sizes", None)
    if sizes is None:
        sizes = [client.data.num_train for client in clients]
    masses = np.asarray(sizes, dtype=np.float64)[indices]
    masses /= masses.sum()

    stacked = np.stack(device_values(clients, w, "gradient", indices))
    global_grad = masses @ stacked
    expected_sq_norm = float(masses @ np.einsum("ij,ij->i", stacked, stacked))
    global_sq_norm = float(global_grad @ global_grad)
    # Cancellation can leave a tiny negative variance; B, a ratio of squared
    # norms, is compared with a relative tolerance only so it is scale-free.
    variance = max(expected_sq_norm - global_sq_norm, 0.0)
    if np.isclose(expected_sq_norm, global_sq_norm, atol=0.0):
        b_value = 1.0
    elif global_sq_norm == 0.0:
        b_value = float("inf")
    else:
        b_value = float(np.sqrt(expected_sq_norm / global_sq_norm))

    return DissimilarityReport(
        gradient_variance=variance,
        b_value=b_value,
        global_gradient_norm=float(np.sqrt(global_sq_norm)),
        devices=tuple(indices.tolist()),
    )


def bounded_variance_b_upper_bound(sigma_sq: float, epsilon: float) -> float:
    """Corollary 10's bound ``B <= sqrt(1 + σ²/ε)``.

    Parameters
    ----------
    sigma_sq:
        Gradient-variance bound ``σ²``.
    epsilon:
        Stationarity threshold ``ε`` (must be positive).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sigma_sq < 0:
        raise ValueError("sigma_sq must be non-negative")
    return float(np.sqrt(1.0 + sigma_sq / epsilon))
