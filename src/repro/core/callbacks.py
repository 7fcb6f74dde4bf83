"""Per-round callbacks for the federated trainer.

Callbacks observe each finished round (they never mutate the model) and can
request early termination.  :class:`EarlyStopping` applies the paper's own
convergence/divergence criteria (Appendix C.3.2) online, so long runs stop
as soon as the stopping point that Figure 7's protocol would pick is
reached.

Ordering relative to telemetry: the trainer emits a round's telemetry
events (the ``round`` span, its phase spans, and the round's metric
events) *inside* ``run_round``, before any callback's
:meth:`Callback.on_round_end` fires — so a callback may inspect an
:class:`~repro.telemetry.InMemorySink` and find the current round's events
already recorded.  :meth:`Callback.on_train_end` fires after the trainer's
final fill-in evaluation (and its ``phase:final_evaluate`` span), i.e.
after the run's last telemetry event, but before the trainer flushes its
sinks.  Early stopping therefore never loses the final-evaluation event
(enforced by ``tests/test_telemetry_integration.py``).
"""

from __future__ import annotations

import abc
from typing import List, Optional

from ..metrics.convergence import (
    CONVERGENCE_TOL,
    DIVERGENCE_JUMP,
    DIVERGENCE_WINDOW,
    classify_run,
)
from .history import RoundRecord, TrainingHistory


class Callback(abc.ABC):
    """Observer of training rounds.

    Subclasses implement :meth:`on_round_end`; returning ``True`` asks the
    trainer to stop after the current round.  :meth:`on_train_end` is an
    optional hook invoked once when :meth:`~repro.core.server.FederatedTrainer.run`
    finishes (normally or via early stop), after the final fill-in
    evaluation.
    """

    @abc.abstractmethod
    def on_round_end(self, record: RoundRecord) -> bool:
        """Handle a finished round; return ``True`` to stop training."""

    def on_train_end(self, history: TrainingHistory) -> None:
        """Handle the end of a training run (default: no-op)."""


class EarlyStopping(Callback):
    """Stop when the paper's convergence or divergence criterion fires.

    The verdict is :func:`repro.metrics.convergence.classify_run`'s over the
    evaluated losses so far — rounds ``EvalConfig(train_every > 1)`` leaves
    unevaluated are not part of the series, exactly as in
    ``history.train_losses``.

    Attributes
    ----------
    stopped_reason:
        ``None`` while running; ``"converged"`` or ``"diverged"`` after the
        criterion fires.
    """

    def __init__(
        self,
        tol: float = CONVERGENCE_TOL,
        divergence_window: int = DIVERGENCE_WINDOW,
        divergence_jump: float = DIVERGENCE_JUMP,
    ) -> None:
        if tol <= 0:
            raise ValueError("tol must be positive")
        if divergence_window < 1:
            raise ValueError("divergence_window must be at least 1")
        self.tol = float(tol)
        self.divergence_window = int(divergence_window)
        self.divergence_jump = float(divergence_jump)
        self._losses: List[float] = []
        self.stopped_reason: Optional[str] = None

    def on_round_end(self, record: RoundRecord) -> bool:
        if record.train_loss is None:
            return False
        self._losses.append(record.train_loss)
        # Earlier rounds were judged when they ended; the newest loss needs
        # only the window behind it.
        outcome = classify_run(
            self._losses[-(self.divergence_window + 1):],
            self.tol, self.divergence_window, self.divergence_jump,
        )
        if outcome.status == "exhausted":
            return False
        self.stopped_reason = outcome.status
        return True
