"""Systems-heterogeneity simulation substrate."""

from .clock import (
    Clock,
    ClockDrivenSystems,
    DeviceTiming,
    SeededLatencyClock,
    SynchronizedClock,
    resolve_clock,
)
from .profiles import NETWORK_TIERS, DeviceProfile, sample_fleet
from .stragglers import (
    FractionStragglers,
    NoHeterogeneity,
    PowerLawStragglers,
    SystemsModel,
    WorkAssignment,
    entropy_rng,
)

__all__ = [
    "SystemsModel",
    "entropy_rng",
    "WorkAssignment",
    "NoHeterogeneity",
    "FractionStragglers",
    "PowerLawStragglers",
    "ClockDrivenSystems",
    "Clock",
    "DeviceTiming",
    "SynchronizedClock",
    "SeededLatencyClock",
    "resolve_clock",
    "DeviceProfile",
    "sample_fleet",
    "NETWORK_TIERS",
]
