"""Stochastic gradient descent local solvers.

:class:`SGDSolver` is the solver used in all of the paper's experiments
("we employ SGD as a local solver for FedProx, to draw a fair comparison
with FedAvg").  :class:`GDSolver` performs full-batch gradient descent and
:class:`MomentumSGDSolver` adds heavy-ball momentum; both demonstrate the
framework's solver-agnosticism in the ``ablation-solvers`` experiment.

All three implement the stacked cohort protocol (see
:mod:`repro.optim.base`).  The two mini-batch solvers write their update
rule once, as ``stacked_step`` over preallocated workspace buffers:
:class:`~repro.optim.base.MiniBatchSolver` runs it on a one-row view for a
scalar solve and the cohort executor on a ``(K, d)`` matrix, so both paths
perform the same floating-point operations.  Both take their gradients
already multiplied by the step size and fold the proximal term into the
rule (numerics epoch 3).  :class:`GDSolver` keeps its own full-batch loop,
and on both paths steps with SGD's rule.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..spec import register
from .base import LocalSolver, MiniBatchSolver, common_mu
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

    # The update rule: w <- (1 - lr mu) w + lr b - lr grad F ------------ #
    @property
    def gradient_scale(self) -> float:
        return self.learning_rate

    def stacked_state(self, shape: tuple) -> dict:
        return {"anchor": (None, None)}

    def stacked_anchor(self, state: dict, mu, b) -> None:
        mu = common_mu(mu)
        decay = None if mu is None else np.array(1.0 - self.learning_rate * mu)
        state["anchor"] = (decay, b)

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step: int
    ) -> None:
        # ``w - lr (grad F + mu (w - w_t) + c)`` as three in-place ufunc
        # calls (one at mu = 0 with no correction), ``out`` positional and
        # the decay a 0-d array; G is ``lr * grad F`` already.
        decay, b = state["anchor"]
        if decay is not None:
            np.multiply(W, decay, W)
        if b is not None:
            np.add(W, b, W)
        np.subtract(W, G, W)


@register
class MomentumSGDSolver(MiniBatchSolver):
    """Heavy-ball SGD: ``v <- beta v + g``, ``w <- w - lr v``.

    The rule keeps ``u = lr v``, so it takes ``lr * grad F`` as SGD does:
    ``u <- beta u + lr (grad F + mu w - b)``, ``w <- w - u``.
    """

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

    # The update rule: u <- beta u + lr g, w <- w - u ------------------- #
    @property
    def gradient_scale(self) -> float:
        return self.learning_rate

    def stacked_state(self, shape: tuple) -> dict:
        return {
            "velocity": np.zeros(shape, dtype=np.float64),
            "scratch": np.empty(shape, dtype=np.float64),
            "anchor": (None, None),
        }

    def stacked_anchor(self, state: dict, mu, b) -> None:
        mu = common_mu(mu)
        state["anchor"] = (None if mu is None else self.learning_rate * mu, b)

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step
    ) -> None:
        # Rows of dropped-out clients freeze along with their velocity,
        # because only the active (A, d) prefix is ever touched; lanes
        # recycled for a new chain are re-zeroed via stacked_reset.
        u = state["velocity"][: len(W)]
        lr_mu, b = state["anchor"]
        np.multiply(u, self.momentum, out=u)
        u += G
        if lr_mu is not None:
            u += np.multiply(W, lr_mu, out=state["scratch"][: len(W)])
        if b is not None:
            u -= b
        W -= u

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
        W = w[None, :]
        state = self._scalar_state(objective, W)
        model, X, y = objective.model, objective.X, objective.y
        for step in range(1, max(1, int(round(epochs))) + 1):
            model.set_params(w)
            G = self.learning_rate * model.gradient(X, y)
            self.stacked_step(W, G[None, :], state, step)
        return w

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

    # A full-batch step is an SGD step on the whole shard, scalar or stacked.
    gradient_scale = SGDSolver.gradient_scale
    stacked_state = SGDSolver.stacked_state
    stacked_anchor = SGDSolver.stacked_anchor
    stacked_step = SGDSolver.stacked_step
