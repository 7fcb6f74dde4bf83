"""γ-inexactness measurement (Definitions 1 and 2 of the paper).

A point ``w*`` is a γ-inexact solution of ``min_w h_k(w; w_t)`` when::

    ||∇h_k(w*; w_t)|| <= γ ||∇h_k(w_t; w_t)||

Smaller γ means a more exact local solve.  :func:`gamma_inexactness` lets
experiments and tests *measure* the inexactness a given solver actually
achieved — the empirical counterpart of the γ_k^t quantities in
Corollary 9.
"""

from __future__ import annotations

import numpy as np

from .proximal import LocalObjective


def gamma_inexactness(
    objective: LocalObjective, w_star: np.ndarray, w_start: np.ndarray
) -> float:
    """Measured γ for a candidate solution of a local subproblem.

    Parameters
    ----------
    objective:
        The local subproblem ``h_k(.; w_start)`` (its ``w_ref`` should be
        ``w_start`` whenever ``mu > 0``).
    w_star:
        The solver's output.
    w_start:
        The subproblem anchor ``w_t``.

    Returns
    -------
    float
        ``||∇h(w*)|| / ||∇h(w_t)||``.  Returns ``0.0`` when the anchor is
        already stationary (both norms ~0), and ``inf`` if only the anchor
        gradient vanishes.
    """
    grad_star = objective.gradient(w_star)
    grad_start = objective.gradient(np.asarray(w_start, dtype=np.float64))
    norm_star = float(np.linalg.norm(grad_star))
    norm_start = float(np.linalg.norm(grad_start))
    if norm_start == 0.0:
        return 0.0 if norm_star == 0.0 else float("inf")
    return norm_star / norm_start
