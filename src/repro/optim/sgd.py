"""Stochastic gradient descent local solvers.

:class:`SGDSolver` is the solver used in all of the paper's experiments
("we employ SGD as a local solver for FedProx, to draw a fair comparison
with FedAvg").  :class:`GDSolver` performs full-batch gradient descent and
:class:`MomentumSGDSolver` adds heavy-ball momentum; both demonstrate the
framework's solver-agnosticism in the ablation benchmarks.

All three implement the stacked cohort protocol (see
:mod:`repro.optim.base`).  The two mini-batch solvers write their update
rule once, as ``stacked_step`` over preallocated workspace buffers:
:class:`~repro.optim.base.MiniBatchSolver` runs it on a one-row view for a
scalar solve and the cohort executor on a ``(K, d)`` matrix, so both paths
perform the same floating-point operations.  :class:`GDSolver` keeps its
own full-batch loop, whose ``stacked_step`` mirrors it row-wise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..spec import register
from .base import LocalSolver, MiniBatchSolver
from .proximal import LocalObjective


@register
class SGDSolver(MiniBatchSolver):
    """Mini-batch SGD with a constant step size.

    Parameters
    ----------
    learning_rate:
        Constant step size ``η`` (the paper tunes this per dataset and never
        decays it).
    batch_size:
        Mini-batch size (10 in all paper experiments).
    """

    def __init__(self, learning_rate: float, batch_size: int = 10) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)

    def describe(self) -> str:
        return f"SGD(lr={self.learning_rate}, B={self.batch_size})"

    # The update rule: w <- w - lr * g ---------------------------------- #
    def stacked_state(self, shape: tuple) -> dict:
        return {"scratch": np.empty(shape, dtype=np.float64)}

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step: int
    ) -> None:
        scratch = state["scratch"][: len(W)]
        np.multiply(G, self.learning_rate, out=scratch)
        np.subtract(W, scratch, out=W)


@register
class MomentumSGDSolver(MiniBatchSolver):
    """Heavy-ball SGD: ``v <- beta v + g``, ``w <- w - lr v``."""

    def __init__(
        self, learning_rate: float, momentum: float = 0.9, batch_size: int = 10
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.batch_size = int(batch_size)

    def describe(self) -> str:
        return (
            f"MomentumSGD(lr={self.learning_rate}, beta={self.momentum}, "
            f"B={self.batch_size})"
        )

    # The update rule: v <- beta v + g, w <- w - lr v -------------------- #
    def stacked_state(self, shape: tuple) -> dict:
        return {
            "velocity": np.zeros(shape, dtype=np.float64),
            "scratch": np.empty(shape, dtype=np.float64),
        }

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step
    ) -> None:
        # Rows of dropped-out clients freeze along with their velocity,
        # because only the active (A, d) prefix is ever touched; lanes
        # recycled for a new chain are re-zeroed via stacked_reset.
        v = state["velocity"][: len(W)]
        scratch = state["scratch"][: len(W)]
        np.multiply(v, self.momentum, out=v)
        v += G
        np.multiply(v, self.learning_rate, out=scratch)
        np.subtract(W, scratch, out=W)

    def stacked_reset(self, state: dict, rows) -> None:
        # A fresh chain starts from zero velocity, as every scalar solve
        # does (it builds a new state).
        state["velocity"][rows] = 0.0


@register
class GDSolver(LocalSolver):
    """Full-batch gradient descent (one step per 'epoch').

    Fractional budgets are rounded to the nearest step count, with a
    minimum of one step.
    """

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def solve(
        self,
        objective: LocalObjective,
        w_start: np.ndarray,
        epochs: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        w = np.array(w_start, dtype=np.float64, copy=True)
        steps = max(1, int(round(epochs)))
        for _ in range(steps):
            w -= self.learning_rate * objective.gradient(w)
        return w

    def describe(self) -> str:
        return f"GD(lr={self.learning_rate})"

    # Stacked cohort protocol -------------------------------------------- #
    @property
    def supports_stacked_solve(self) -> bool:
        return True

    def stacked_plan(
        self, n_samples: int, epochs: float, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        # Full-batch steps; rng is deliberately untouched (the scalar
        # solve never draws from it either).
        steps = max(1, int(round(epochs)))
        return np.tile(np.arange(n_samples), steps), np.full(steps, n_samples)

    def stacked_state(self, shape: tuple) -> dict:
        return {"scratch": np.empty(shape, dtype=np.float64)}

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step: int
    ) -> None:
        scratch = state["scratch"][: len(W)]
        np.multiply(G, self.learning_rate, out=scratch)
        np.subtract(W, scratch, out=W)
