"""Adaptive proximal-coefficient heuristic (Section 5.3.2, Figures 3 & 11).

The paper's rule: "increase µ by 0.1 whenever the loss increases and
decrease it by 0.1 whenever the loss decreases for 5 consecutive rounds."
The controller is deliberately tiny — it observes the global training loss
after each round and adjusts µ for the next round.
"""

from __future__ import annotations

from typing import Optional

from ..spec import register


@register
class AdaptiveMuController:
    """Stateful µ controller implementing the paper's heuristic.

    Parameters
    ----------
    initial_mu:
        Starting value (the paper initializes adversarially: 1.0 on IID
        data, 0.0 on heterogeneous data).
    step:
        Adjustment magnitude (0.1 in the paper).
    patience:
        Consecutive decreasing rounds required before µ is reduced (5 in
        the paper).
    mu_min, mu_max:
        Clamp range for µ.
    """

    def __init__(
        self,
        initial_mu: float,
        step: float = 0.1,
        patience: int = 5,
        mu_min: float = 0.0,
        mu_max: float = 10.0,
    ) -> None:
        if initial_mu < 0:
            raise ValueError("initial_mu must be non-negative")
        if step <= 0:
            raise ValueError("step must be positive")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        if not mu_min <= initial_mu <= mu_max:
            raise ValueError("initial_mu must lie inside [mu_min, mu_max]")
        # Kept beside the moving ``mu`` so the controller describes its
        # construction (a run ledger rebuilds it fresh), not its state.
        self.initial_mu = float(initial_mu)
        self.mu = self.initial_mu
        self.step = float(step)
        self.patience = int(patience)
        self.mu_min = float(mu_min)
        self.mu_max = float(mu_max)
        self._previous_loss: Optional[float] = None
        self._decrease_streak = 0

    def update(self, loss: float) -> float:
        """Observe this round's global loss; return µ for the next round."""
        if self._previous_loss is not None:
            if loss > self._previous_loss:
                self.mu = min(self.mu + self.step, self.mu_max)
                self._decrease_streak = 0
            elif loss < self._previous_loss:
                self._decrease_streak += 1
                if self._decrease_streak >= self.patience:
                    self.mu = max(self.mu - self.step, self.mu_min)
                    self._decrease_streak = 0
            else:
                self._decrease_streak = 0
        self._previous_loss = float(loss)
        return self.mu
