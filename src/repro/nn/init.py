"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
every experiment in the harness is reproducible from a single seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero array (standard for biases)."""
    return np.zeros(shape, dtype=np.float64)


def normal(
    rng: np.random.Generator, shape: Tuple[int, ...], std: float = 0.01
) -> np.ndarray:
    """Gaussian ``N(0, std^2)`` initialization."""
    return rng.normal(0.0, std, size=shape)


def glorot_uniform(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform initialization for dense weights.

    Fan-in/fan-out are taken from the first/last axis, which covers the
    2-D dense and embedding matrices used here.
    """
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
