"""Server-side robustness policies: what the trainer does when devices fail.

A :class:`FaultPolicy` is pure configuration — the decisions themselves are
executed by :class:`~repro.faults.manager.FaultManager` each round.  The
policy axes map onto the paper's method semantics:

* ``on_crash="accept_partial"`` — FedProx's γ-inexact partial-work
  semantics (Definition 2): a crashed device's recovered partial iterate is
  aggregated like any straggler's partial solution.
* ``on_crash="drop"`` — FedAvg's semantics: failed devices contribute
  nothing (their updates are discarded, shifting aggregation weight onto
  the survivors).
* ``on_crash="retry"`` — re-dispatch the solve with a fresh sub-seed up to
  ``max_retries`` times, paying (simulated) exponential backoff; when every
  attempt fails, fall back to ``after_retries``.

Independent of crash handling, the policy guards aggregation itself:

* **Quarantine** — updates containing non-finite values are never
  aggregated; each offense increments the client's suspicion counter and a
  client reaching ``quarantine_threshold`` is excluded from all future
  rounds (its selections are skipped without solving).
* **Minimum quorum** — when fewer than ``min_quorum`` updates survive a
  round, aggregation is skipped entirely (the global model holds) and the
  round is marked degraded, rather than letting one or two surviving
  devices yank the model toward their local optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..spec import register

#: Crash-handling strategies.
CRASH_ACTIONS = ("accept_partial", "drop", "retry")

#: Post-retry fallbacks (a retry chain that never succeeds ends here).
RETRY_FALLBACKS = ("accept_partial", "drop")


@register
@dataclass(frozen=True)
class FaultPolicy:
    """Robustness configuration applied by the trainer every round.

    Parameters
    ----------
    on_crash:
        ``"accept_partial"`` (FedProx semantics, the default), ``"drop"``
        (FedAvg semantics), or ``"retry"``.
    max_retries:
        Retry budget per solve when ``on_crash="retry"``.
    after_retries:
        What to do when every retry fails: ``"accept_partial"`` keeps the
        last recovered partial iterate (if any), ``"drop"`` discards.
    backoff_base:
        First retry's simulated backoff delay (seconds of simulated wall
        time; recorded in telemetry, never actually slept).
    backoff_factor:
        Multiplier between consecutive backoff delays.
    quarantine_threshold:
        Non-finite offenses before a client is permanently quarantined.
    min_quorum:
        Aggregation quorum: ``0`` disables the guard, an ``int >= 1`` is an
        absolute update count, and a float in ``(0, 1)`` is a fraction of
        the round's selected devices (rounded up).
    """

    on_crash: str = "accept_partial"
    max_retries: int = 2
    after_retries: str = "accept_partial"
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    quarantine_threshold: int = 3
    min_quorum: float = 0.0

    def __post_init__(self) -> None:
        if self.on_crash not in CRASH_ACTIONS:
            raise ValueError(
                f"on_crash must be one of {CRASH_ACTIONS}, got {self.on_crash!r}"
            )
        if self.after_retries not in RETRY_FALLBACKS:
            raise ValueError(
                f"after_retries must be one of {RETRY_FALLBACKS}, "
                f"got {self.after_retries!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor <= 0:
            raise ValueError("backoff_base must be >= 0, backoff_factor > 0")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be at least 1")
        if self.min_quorum < 0:
            raise ValueError("min_quorum must be non-negative")

    # Derived quantities -------------------------------------------------- #
    def backoff(self, attempt: int) -> float:
        """Simulated delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_base * self.backoff_factor ** (attempt - 1)

    def backoff_sequence(self, n: int = None) -> List[float]:
        """The full simulated backoff schedule (``max_retries`` delays)."""
        count = self.max_retries if n is None else n
        return [self.backoff(a) for a in range(1, count + 1)]

    def quorum_for(self, num_selected: int) -> int:
        """The minimum surviving-update count for ``num_selected`` devices."""
        if self.min_quorum == 0:
            return 0
        if self.min_quorum < 1:
            return max(1, math.ceil(num_selected * self.min_quorum))
        return int(self.min_quorum)

    # Presets -------------------------------------------------------------- #
    @classmethod
    def fedprox(cls, **overrides) -> "FaultPolicy":
        """Accept-partial semantics (tolerate partial work, Algorithm 2)."""
        overrides.setdefault("on_crash", "accept_partial")
        return cls(**overrides)

    @classmethod
    def fedavg(cls, **overrides) -> "FaultPolicy":
        """Drop semantics (discard failed devices, Algorithm 1)."""
        overrides.setdefault("on_crash", "drop")
        return cls(**overrides)
