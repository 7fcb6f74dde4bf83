"""Adam local solver — demonstrates FedProx's solver-agnosticism.

The paper stresses that FedProx admits "any local (possibly non-iterative)
solver"; the ablation benchmark ``benchmarks/ablations`` swaps Adam in for
SGD inside the same FedProx server loop.
"""

from __future__ import annotations

import numpy as np

from ..spec import register
from .base import MiniBatchSolver


@register
class AdamSolver(MiniBatchSolver):
    """Mini-batch Adam with bias correction.

    Moment state is reset at every local solve, matching the federated
    setting where devices are stateless between rounds.

    Parameters
    ----------
    learning_rate:
        Step size.
    beta1, beta2:
        Exponential decay rates for the first/second moment estimates.
    eps:
        Denominator fuzz factor.
    batch_size:
        Mini-batch size.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        batch_size: int = 10,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.batch_size = int(batch_size)

    def describe(self) -> str:
        return (
            f"Adam(lr={self.learning_rate}, B={self.batch_size}, "
            "stacked=yes, stateless=per-solve)"
        )

    # The update rule ---------------------------------------------------- #
    def stacked_state(self, shape: tuple) -> dict:
        # Fresh zeroed moments per solve, scalar or cohort: the
        # stateless-device contract (moment state never leaks across
        # rounds).
        return {
            "m": np.zeros(shape, dtype=np.float64),
            "v": np.zeros(shape, dtype=np.float64),
            "scratch": np.empty(shape, dtype=np.float64),
            "scratch2": np.empty(shape, dtype=np.float64),
        }

    def stacked_step(
        self, W: np.ndarray, G: np.ndarray, state: dict, step
    ) -> None:
        # ``step`` is a plain int when every active lane sits at the same
        # local step (one chain per lane); the packing planner passes an
        # (A,) array of per-row 1-based steps when lanes at different chain
        # offsets share a segment.  Both branches evaluate beta**step
        # through libm ``pow`` (Python float ** int and np.power on float64
        # agree), so the bias correction is numerically identical either
        # way.
        a = len(W)
        m = state["m"][:a]
        v = state["v"][:a]
        scratch = state["scratch"][:a]
        scratch2 = state["scratch2"][:a]
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(G, 1 - self.beta1, out=scratch)
        m += scratch
        # v = beta2 * v + (1 - beta2) * grad**2
        np.multiply(v, self.beta2, out=v)
        np.square(G, out=scratch)  # what ``grad**2`` evaluates
        np.multiply(scratch, 1 - self.beta2, out=scratch)
        v += scratch
        if isinstance(step, np.ndarray):
            exp = step.astype(np.float64)[:, None]
            corr1 = 1.0 - np.power(self.beta1, exp)
            corr2 = 1.0 - np.power(self.beta2, exp)
        else:
            corr1 = 1 - self.beta1**step
            corr2 = 1 - self.beta2**step
        # w -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, corr1, out=scratch)   # m_hat
        np.multiply(scratch, self.learning_rate, out=scratch)
        np.divide(v, corr2, out=scratch2)  # v_hat
        np.sqrt(scratch2, out=scratch2)
        scratch2 += self.eps
        np.divide(scratch, scratch2, out=scratch)
        np.subtract(W, scratch, out=W)

    def stacked_reset(self, state: dict, rows) -> None:
        # A lane recycled for a new client chain starts from zeroed
        # moments, as a scalar solve's fresh state does.
        state["m"][rows] = 0.0
        state["v"][rows] = 0.0
