"""Deterministic, seeded device-fault models.

The paper's systems-heterogeneity protocol (§5.2) reduces constrained
devices to *smaller epoch budgets*; real federated deployments additionally
see devices that crash mid-solve, go offline for whole rounds, return
corrupted updates, or deliver their updates rounds late.  This module
simulates those failure patterns with the same determinism contract as the
straggler models: every draw is a pure function of
``(seed, round, client, attempt)`` through the shared
:func:`repro.systems.stragglers.entropy_rng` pipeline, so two runs built
with the same seed face the same faults — on any executor, in any process,
regardless of dispatch order.

Fault taxonomy
--------------
``crash``
    The device fails after completing a drawn fraction of its step budget.
    Its partial iterate is recoverable (the device checkpointed): whether
    the server retries, accepts the partial work (FedProx's γ-inexact
    semantics), or drops the update is the
    :class:`~repro.faults.policy.FaultPolicy`'s decision.
``dropout``
    The device is unavailable for the whole round; no update exists.
``corrupt``
    The solve completes but the delivered update is damaged — NaN-poisoned
    (``mode="nan"``, detectable) or perturbed by heavy noise
    (``mode="noise"``, silent).
``stale``
    The solve completes but delivery is delayed by a drawn number of
    rounds; the server receives the (stale) update later.

:class:`FaultSchedule` extends the :class:`~repro.systems.stragglers.SystemsModel`
protocol: a schedule *is* a systems model (its :meth:`assign` passes
budgets through unchanged, so a schedule alone describes a federation with
faults but no stragglers) that additionally answers per-device fault
queries via :meth:`draw`.  The trainer composes it with an independent
straggler model — budgets and faults are orthogonal axes of the simulated
environment.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..spec import describe, register
from ..systems.stragglers import SystemsModel, WorkAssignment, entropy_rng

# Salt separating fault draws from straggler/batch draws in the shared
# seed-entropy pipeline (arbitrary constant, spells "FA17" for faults).
FAULT_SALT = 0xFA17

#: The fault kinds a schedule may draw.
FAULT_KINDS = ("crash", "dropout", "corrupt", "stale")

#: Corruption flavors.
CORRUPT_MODES = ("nan", "noise")


@dataclass(frozen=True)
class FaultDecision:
    """One device's drawn fault for one round (or retry attempt).

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    fraction:
        For ``crash``: fraction of the step budget completed before the
        failure (the recoverable partial work).
    delay:
        For ``stale``: rounds until the update actually arrives.
    mode:
        For ``corrupt``: ``"nan"`` (detectable poisoning) or ``"noise"``.
    scale:
        For ``corrupt``/``mode="noise"``: noise magnitude relative to the
        update's RMS value.
    """

    kind: str
    fraction: float = 1.0
    delay: int = 0
    mode: str = "nan"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "crash" and not 0.0 < self.fraction <= 1.0:
            raise ValueError("crash fraction must be in (0, 1]")
        if self.kind == "stale" and self.delay < 1:
            raise ValueError("stale delay must be at least 1 round")
        if self.kind == "corrupt" and self.mode not in CORRUPT_MODES:
            raise ValueError(
                f"corrupt mode must be one of {CORRUPT_MODES}, got {self.mode!r}"
            )


class FaultSchedule(SystemsModel):
    """Per-(round, device) fault draws; a :class:`SystemsModel` extension.

    Subclasses implement :meth:`draw` as a pure function of
    ``(seed, round, client, attempt)``.  ``attempt`` distinguishes retry
    dispatches — a retried solve faces a *fresh* fault draw, so retries can
    themselves fail deterministically.

    As a systems model, a schedule assigns every device its full budget
    (faults never shrink budgets — a crash truncates the *executed* work,
    which is a different thing: the device intended the full budget).
    """

    #: Whether this schedule can ever inject a fault.  ``False`` only for
    #: :class:`NoFaults`; the trainer uses it to keep the disabled path
    #: bit-identical to pre-fault behavior.
    enabled = True

    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        return [
            WorkAssignment(client_id=c, epochs=max_epochs, is_straggler=False)
            for c in client_ids
        ]

    @abc.abstractmethod
    def draw(
        self, round_idx: int, client_id: int, attempt: int = 0
    ) -> Optional[FaultDecision]:
        """The fault (if any) striking this solve; ``None`` means healthy."""

    def _rng(
        self, round_idx: int, client_id: int, attempt: int
    ) -> np.random.Generator:
        """Per-draw generator on the shared seed-entropy pipeline."""
        return entropy_rng(
            getattr(self, "seed", 0), FAULT_SALT, round_idx, client_id, attempt
        )

    # Schedules are pure functions of their constructor arguments, so
    # value equality is description equality — this is what makes
    # TrainerConfig.to_dict()/from_dict() a true round-trip.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return type(other) is type(self) and describe(other) == describe(self)

    def __hash__(self) -> int:
        return hash(repr(describe(self)))


@register
class NoFaults(FaultSchedule):
    """The default: no device ever faults.

    With this schedule the trainer's behavior — entropy consumption, task
    construction, histories — is bit-identical to a trainer that predates
    the fault subsystem.
    """

    enabled = False

    def draw(
        self, round_idx: int, client_id: int, attempt: int = 0
    ) -> Optional[FaultDecision]:
        return None


#: Shared no-fault instance; use instead of constructing.
NO_FAULTS = NoFaults()


class _RateFaults(FaultSchedule):
    """Common base for schedules striking independently at a fixed rate."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)

    def draw(
        self, round_idx: int, client_id: int, attempt: int = 0
    ) -> Optional[FaultDecision]:
        rng = self._rng(round_idx, client_id, attempt)
        if rng.uniform() >= self.rate:
            return None
        return self._decision(rng)

    @abc.abstractmethod
    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        """The fault a strike inflicts."""


@register
class CrashFaults(_RateFaults):
    """Devices crash mid-solve with probability ``rate``.

    The completed fraction of the step budget is drawn uniformly from
    ``[min_fraction, max_fraction]`` — the paper's partial-work regime,
    triggered by a failure instead of a known budget.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        min_fraction: float = 0.1,
        max_fraction: float = 0.9,
    ) -> None:
        super().__init__(rate, seed)
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction <= max_fraction <= 1")
        self.min_fraction = float(min_fraction)
        self.max_fraction = float(max_fraction)

    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        return FaultDecision(
            kind="crash",
            fraction=float(rng.uniform(self.min_fraction, self.max_fraction)),
        )


@register
class DropoutFaults(_RateFaults):
    """Devices go offline for whole rounds with probability ``rate``."""

    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        return FaultDecision(kind="dropout")


@register
class CorruptionFaults(_RateFaults):
    """Delivered updates are corrupted with probability ``rate``.

    ``mode="nan"`` poisons a subset of coordinates with NaNs (detectable —
    the policy's quarantine guard catches it); ``mode="noise"`` adds
    Gaussian noise at ``scale`` times the update's RMS magnitude (silent).
    """

    def __init__(
        self, rate: float, seed: int = 0, mode: str = "nan", scale: float = 1.0
    ) -> None:
        super().__init__(rate, seed)
        if mode not in CORRUPT_MODES:
            raise ValueError(f"mode must be one of {CORRUPT_MODES}")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.mode = mode
        self.scale = float(scale)

    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        return FaultDecision(kind="corrupt", mode=self.mode, scale=self.scale)


@register
class StaleFaults(_RateFaults):
    """Updates are delivered late with probability ``rate``.

    The delay is drawn uniformly from ``{1, ..., max_delay}`` rounds.
    """

    def __init__(self, rate: float, seed: int = 0, max_delay: int = 3) -> None:
        super().__init__(rate, seed)
        if max_delay < 1:
            raise ValueError("max_delay must be at least 1")
        self.max_delay = int(max_delay)

    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        return FaultDecision(
            kind="stale", delay=int(rng.integers(1, self.max_delay + 1))
        )


@register
class ChaosFaults(_RateFaults):
    """Chaos mode: faults strike at ``rate``, sampling uniformly over kinds.

    Parameters
    ----------
    rate:
        Per-(round, device) fault probability.
    seed:
        Base seed on the shared entropy pipeline.
    kinds:
        The fault kinds to sample from (default: all of
        :data:`FAULT_KINDS`).
    min_fraction, max_fraction, mode, scale, max_delay:
        Kind-specific parameters, as on the dedicated schedules.
    """

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        kinds: Sequence[str] = FAULT_KINDS,
        min_fraction: float = 0.1,
        max_fraction: float = 0.9,
        mode: str = "nan",
        scale: float = 1.0,
        max_delay: int = 3,
    ) -> None:
        super().__init__(rate, seed)
        kinds = tuple(kinds)
        if not kinds or any(k not in FAULT_KINDS for k in kinds):
            raise ValueError(f"kinds must be a non-empty subset of {FAULT_KINDS}")
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction <= max_fraction <= 1")
        if mode not in CORRUPT_MODES:
            raise ValueError(f"mode must be one of {CORRUPT_MODES}")
        if max_delay < 1:
            raise ValueError("max_delay must be at least 1")
        self.kinds = kinds
        self.min_fraction = float(min_fraction)
        self.max_fraction = float(max_fraction)
        self.mode = mode
        self.scale = float(scale)
        self.max_delay = int(max_delay)

    def _decision(self, rng: np.random.Generator) -> FaultDecision:
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        if kind == "crash":
            return FaultDecision(
                kind="crash",
                fraction=float(
                    rng.uniform(self.min_fraction, self.max_fraction)
                ),
            )
        if kind == "dropout":
            return FaultDecision(kind="dropout")
        if kind == "corrupt":
            return FaultDecision(
                kind="corrupt", mode=self.mode, scale=self.scale
            )
        return FaultDecision(
            kind="stale", delay=int(rng.integers(1, self.max_delay + 1))
        )


@register
class ComposeFaults(FaultSchedule):
    """First-match composition of independent fault schedules.

    Each member draws independently (its own seed stream); the first
    non-``None`` decision wins, so earlier members take precedence when
    multiple faults would strike the same solve.
    """

    def __init__(self, schedules: Sequence[FaultSchedule]) -> None:
        schedules = list(schedules)
        if not schedules:
            raise ValueError("ComposeFaults requires at least one schedule")
        for s in schedules:
            if not isinstance(s, FaultSchedule):
                raise TypeError(
                    f"expected FaultSchedule members, got {type(s).__name__}"
                )
        self.schedules = schedules

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return any(s.enabled for s in self.schedules)

    def draw(
        self, round_idx: int, client_id: int, attempt: int = 0
    ) -> Optional[FaultDecision]:
        for schedule in self.schedules:
            decision = schedule.draw(round_idx, client_id, attempt)
            if decision is not None:
                return decision
        return None


def resolve_faults(faults: Optional[FaultSchedule]) -> FaultSchedule:
    """Normalize an optional faults argument (``None`` → :data:`NO_FAULTS`)."""
    if faults is None:
        return NO_FAULTS
    if not isinstance(faults, FaultSchedule):
        raise TypeError(
            f"faults must be a FaultSchedule or None, got {type(faults).__name__}"
        )
    return faults
