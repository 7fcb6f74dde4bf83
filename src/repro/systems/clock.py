"""Global-clock systems model and the shared :class:`Clock` protocol.

Section 5.2: "We assume that there is a real-world global clock cycle to
aggregate model updates, and each participating device determines the amount
of local work as a function of this clock cycle and its systems
constraints."

:class:`ClockDrivenSystems` implements that description literally: every
round lasts ``deadline`` clock cycles; a device with effective speed ``s``
completes ``min(E, s * deadline)`` epochs (communication time is deducted
first).  Devices that finish fewer than ``E`` epochs are stragglers —
dropped by FedAvg, merged by FedProx.

The :class:`Clock` protocol is the single simulated-time abstraction shared
by the synchronous timeline converter (:func:`repro.systems.trace.trace_round`)
and the asynchronous round engine
(:class:`~repro.runtime.async_engine.AsyncExecutor`): a clock answers "how
long does device *d*'s round-trip take at round *r* for *e* epochs of
work", as a :class:`DeviceTiming` split into download/compute/upload.  All
timings are pure functions of ``(seed, round, device)``, so simulated
schedules are bit-reproducible across executors and replays.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..spec import register
from .profiles import DeviceProfile
from .stragglers import SystemsModel, WorkAssignment, entropy_rng

#: Entropy salt separating clock latency draws from every other draw
#: derived from the same trainer seed (straggler budgets, faults, batches).
_CLOCK_SALT = 0xC10C


@register
class ClockDrivenSystems(SystemsModel):
    """Derive per-round epoch budgets from device profiles and a deadline.

    Parameters
    ----------
    profiles:
        One :class:`DeviceProfile` per device in the federation (indexed by
        ``device_id``).
    deadline:
        Length of the aggregation clock cycle, in cycles.  The reference
        device (speed 1.0) completes exactly ``deadline`` epochs of work in
        one round before communication overhead.
    model_megabits:
        Size of the model transferred each way, used to deduct
        communication time from the compute budget.
    jitter_sigma:
        Log-normal round-to-round noise on each device's speed (load spikes,
        thermal throttling).  0 disables jitter.
    seed:
        Base seed; jitter is a pure function of ``(seed, round, device)``
        so that compared algorithms face the same environment.
    """

    def __init__(
        self,
        profiles: Sequence[DeviceProfile],
        deadline: float,
        model_megabits: float = 1.0,
        jitter_sigma: float = 0.25,
        seed: int = 0,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.profiles: List[DeviceProfile] = list(profiles)
        self._by_device: Dict[int, DeviceProfile] = {
            p.device_id: p for p in self.profiles
        }
        self.deadline = float(deadline)
        self.model_megabits = float(model_megabits)
        self.jitter_sigma = float(jitter_sigma)
        self.seed = int(seed)

    def _jitter(self, round_idx: int, device_id: int) -> float:
        if self.jitter_sigma <= 0:
            return 1.0
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, round_idx, device_id])
        )
        return float(rng.lognormal(0.0, self.jitter_sigma))

    def _communication_cycles(self, profile: DeviceProfile) -> float:
        """Clock cycles spent on download + upload of the model."""
        seconds_per_cycle = 1.0  # cycles are the unit of time
        transfer_seconds = 2.0 * self.model_megabits / profile.bandwidth_mbps
        return transfer_seconds / seconds_per_cycle

    def epochs_within_deadline(self, round_idx: int, device_id: int) -> float:
        """Epochs device ``device_id`` completes inside one clock cycle."""
        profile = self._by_device[device_id]
        compute_budget = self.deadline - self._communication_cycles(profile)
        if compute_budget <= 0:
            return 0.0
        speed = profile.effective_speed() * self._jitter(round_idx, device_id)
        return speed * compute_budget

    def assign(
        self, round_idx: int, client_ids: Sequence[int], max_epochs: float
    ) -> List[WorkAssignment]:
        assignments: List[WorkAssignment] = []
        for client in client_ids:
            budget = self.epochs_within_deadline(round_idx, client)
            epochs = min(float(max_epochs), budget)
            # A device that cannot run any work at all still reports a tiny
            # budget so FedProx can include (near-anchor) partial solutions;
            # FedAvg drops it either way.
            epochs = max(epochs, 0.02)
            assignments.append(
                WorkAssignment(
                    client_id=client,
                    epochs=epochs,
                    is_straggler=epochs < float(max_epochs),
                )
            )
        return assignments


# --------------------------------------------------------------------- #
# The Clock protocol
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeviceTiming:
    """Simulated durations of one device round-trip, in clock cycles."""

    download: float
    compute: float
    upload: float

    @property
    def total(self) -> float:
        """End-to-end check-in latency: download + compute + upload."""
        return self.download + self.compute + self.upload


class Clock(abc.ABC):
    """Simulated-time source shared by sync tracing and the async engine.

    Implementations answer :meth:`timing` as a pure function of
    ``(round, device, epochs)`` — no hidden state — so any schedule built
    on a clock is deterministic and executor-independent.  ``period`` is
    the duration of one aggregation round in the clock's cycle units; a
    device whose :meth:`duration` exceeds ``period`` checks in late (the
    async engine's staleness source).
    """

    #: Length of one aggregation round in cycles (the unit durations are
    #: compared against).
    period: float = 1.0

    @abc.abstractmethod
    def timing(
        self, round_idx: int, device_id: int, epochs: float
    ) -> DeviceTiming:
        """Download/compute/upload durations for one device round-trip."""

    def duration(self, round_idx: int, device_id: int, epochs: float) -> float:
        """Total simulated check-in latency (``timing(...).total``)."""
        return self.timing(round_idx, device_id, epochs).total


class SynchronizedClock(Clock):
    """Every device checks in instantly — the synchronous degenerate clock.

    Under this clock the async engine's arrival order equals submission
    order and every delivery lands in its own round (staleness 0), which is
    what makes the ``window=0`` serial-parity oracle exact.
    """

    def timing(
        self, round_idx: int, device_id: int, epochs: float
    ) -> DeviceTiming:
        return DeviceTiming(0.0, 0.0, 0.0)


class SeededLatencyClock(Clock):
    """Log-normal per-(round, device) check-in latencies from a seed.

    ``latency`` is the median round-trip in round periods; ``jitter`` is
    the log-normal sigma (0 disables noise).  The draw is a pure function
    of ``(seed, _CLOCK_SALT, round, device)`` through the shared
    seed-entropy pipeline, so two runs with the same seed simulate
    identical traffic and replays reproduce the original bit-for-bit.
    The total splits 10% download / 80% compute / 10% upload.
    """

    def __init__(
        self, seed: int = 0, latency: float = 1.0, jitter: float = 0.5
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.seed = int(seed)
        self.latency = float(latency)
        self.jitter = float(jitter)

    def timing(
        self, round_idx: int, device_id: int, epochs: float
    ) -> DeviceTiming:
        total = self.latency
        if self.jitter > 0:
            rng = entropy_rng(self.seed, _CLOCK_SALT, round_idx, device_id)
            total *= float(rng.lognormal(0.0, self.jitter))
        return DeviceTiming(0.1 * total, 0.8 * total, 0.1 * total)


class SystemsClock(Clock):
    """The :class:`ClockDrivenSystems` cost model exposed as a clock.

    Communication splits evenly into download/upload halves and compute
    time is ``epochs / effective_speed`` with the same deterministic jitter
    as :meth:`ClockDrivenSystems.assign` — exactly the arithmetic the
    synchronous timeline converter (:func:`repro.systems.trace.trace_round`)
    has always used, now shared: a device that cannot compute at all
    (``speed <= 0``) is charged the full deadline.  ``period`` is the
    systems model's aggregation deadline.
    """

    def __init__(self, systems: ClockDrivenSystems) -> None:
        if not isinstance(systems, ClockDrivenSystems):
            raise TypeError(
                f"SystemsClock wraps a ClockDrivenSystems, got "
                f"{type(systems).__name__}"
            )
        self.systems = systems
        self.period = float(systems.deadline)

    def timing(
        self, round_idx: int, device_id: int, epochs: float
    ) -> DeviceTiming:
        systems = self.systems
        profile = systems._by_device[device_id]
        comm = systems._communication_cycles(profile)
        speed = profile.effective_speed() * systems._jitter(round_idx, device_id)
        compute = epochs / speed if speed > 0 else systems.deadline
        return DeviceTiming(comm / 2.0, compute, comm / 2.0)


def resolve_clock(
    arrivals: str,
    systems: Optional[SystemsModel] = None,
    seed: int = 0,
    latency: float = 1.0,
    jitter: float = 0.5,
) -> Clock:
    """Build the clock an arrival-model name describes.

    ``"synchronized"`` (alias ``"sync"``) → :class:`SynchronizedClock`;
    ``"seeded"`` → :class:`SeededLatencyClock`; ``"systems"`` →
    :class:`SystemsClock` over the given :class:`ClockDrivenSystems`
    (anything else is a labeled error, since only that model carries
    device cost profiles).
    """
    name = str(arrivals).lower()
    if name in ("synchronized", "sync"):
        return SynchronizedClock()
    if name == "seeded":
        return SeededLatencyClock(seed=seed, latency=latency, jitter=jitter)
    if name == "systems":
        if not isinstance(systems, ClockDrivenSystems):
            raise ValueError(
                'arrivals="systems" requires the trainer to run under a '
                "ClockDrivenSystems model (its device profiles drive the "
                f"clock); got {type(systems).__name__ if systems is not None else None!r}. "
                'Use arrivals="seeded" for profile-free simulated latency.'
            )
        return SystemsClock(systems)
    raise ValueError(
        f"unknown arrival model {arrivals!r}; expected one of "
        "'synchronized' (instant check-ins, the window=0 parity oracle), "
        "'seeded' (log-normal latency from the run seed), or 'systems' "
        "(latency from ClockDrivenSystems device profiles)"
    )
