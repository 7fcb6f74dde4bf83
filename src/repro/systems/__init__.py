"""Systems-heterogeneity simulation substrate."""

from .. import _lazy

_lazy.attach(globals(), {
    ".stragglers": (
        "SystemsModel",
        "entropy_rng",
        "WorkAssignment",
        "NoHeterogeneity",
        "FractionStragglers",
        "PowerLawStragglers",
    ),
    ".clock": (
        "ClockDrivenSystems",
        "Clock",
        "DeviceTiming",
        "SynchronizedClock",
        "SeededLatencyClock",
        "resolve_clock",
    ),
    ".profiles": ("DeviceProfile", "sample_fleet", "NETWORK_TIERS"),
})
