"""Device capability profiles.

The paper motivates systems heterogeneity by "variability in hardware (CPU,
memory), network connectivity (3G, 4G, 5G, wifi), and power (battery
level)".  :class:`DeviceProfile` models those axes explicitly;
:func:`sample_fleet` draws a heterogeneous fleet.  The clock-driven systems
model (:mod:`repro.systems.clock`) converts profiles into per-round epoch
budgets, providing a more physical alternative to the paper's direct
x%-straggler protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..spec import register

#: Representative downlink/uplink throughputs in megabits per second.
NETWORK_TIERS = {
    "3g": 2.0,
    "4g": 20.0,
    "5g": 150.0,
    "wifi": 80.0,
}


@register
@dataclass(frozen=True)
class DeviceProfile:
    """Static systems characteristics of one device.

    Attributes
    ----------
    device_id:
        Device identifier.
    compute_speed:
        Relative local-training throughput in epochs per clock cycle at
        full battery (1.0 = reference device).
    network:
        One of :data:`NETWORK_TIERS`.
    battery_level:
        In [0, 1]; low battery throttles compute (a common OS policy).
    """

    device_id: int
    compute_speed: float
    network: str
    battery_level: float

    def __post_init__(self) -> None:
        if self.compute_speed <= 0:
            raise ValueError("compute_speed must be positive")
        if self.network not in NETWORK_TIERS:
            raise ValueError(f"unknown network tier {self.network!r}")
        if not 0.0 <= self.battery_level <= 1.0:
            raise ValueError("battery_level must be in [0, 1]")

    @property
    def bandwidth_mbps(self) -> float:
        """Link throughput for model upload/download."""
        return NETWORK_TIERS[self.network]

    def effective_speed(self) -> float:
        """Compute throughput after battery throttling.

        Devices below 20% battery are throttled to half speed, a simple
        stand-in for real power-management policies.
        """
        throttle = 0.5 if self.battery_level < 0.2 else 1.0
        return self.compute_speed * throttle


def sample_fleet(
    num_devices: int,
    rng: np.random.Generator,
    speed_sigma: float = 0.6,
) -> List[DeviceProfile]:
    """Draw a heterogeneous fleet of device profiles.

    Compute speeds are log-normal around 1.0 (heavy slow tail — the
    stragglers); network tiers and battery levels are drawn independently.
    """
    tiers = list(NETWORK_TIERS)
    profiles = []
    for device_id in range(num_devices):
        profiles.append(
            DeviceProfile(
                device_id=device_id,
                compute_speed=float(rng.lognormal(0.0, speed_sigma)),
                network=tiers[int(rng.integers(len(tiers)))],
                battery_level=float(rng.uniform(0.05, 1.0)),
            )
        )
    return profiles
