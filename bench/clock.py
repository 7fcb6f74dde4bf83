"""A calibrated clock: wall time rescaled by the machine's measured speed.

The reference machine is a 2-vCPU microVM whose speed switches, for a
minute or several at a time, between a fast and a slow regime (a busy
neighbour, never visible as steal time): back-to-back runs of one seed of
``paper_synth_serial`` read 16.2–17.4 rounds/s in one and 10.7–12.5 in the
other, a 46 % range that no bound below the contract's 25 % cap survives.
A fixed NumPy kernel interleaved with the same runs slows down with them
(1.4 ms against 2.2–2.4 ms here), and rounds/s x kernel time stays within
±8 %.

So every duration the benchmark reports is measured on the wall clock and
then rescaled by ``REFERENCE_MS / kernel time`` around it: seconds as they
would have read on the reference machine in its fast regime.  The raw wall
time and the median speed are kept in the results files beside the
calibrated numbers.  The kernel runs between rounds, every ``PERIOD_S`` of
workload, outside the timed region and outside every span.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel time on the reference machine (Xeon @ 2.10 GHz, 2 vCPUs, BLAS
#: pinned to one thread) in its fast regime, warm cache.
REFERENCE_MS = 1.4

#: Seconds of workload between two kernel samples inside a timed region.
PERIOD_S = 0.25

_X = np.random.default_rng(0).standard_normal((10, 60))
_BUFFER = np.zeros(131072)


def _kernel() -> None:
    """~2 ms of what the workloads are made of: interpreter-driven small
    matmuls and elementwise maths, a random draw, a 1 MB copy."""
    w = np.zeros((60, 10))
    for _ in range(100):
        z = _X @ w
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        w -= 0.01 * (_X.T @ p)
    np.random.default_rng(1).standard_normal(20000)
    copy = _BUFFER.copy()
    copy += 1.0


class Calibration:
    """Kernel samples taken through one measurement, and the clock they imply.

    Between two samples the machine's speed is taken as constant, at
    ``REFERENCE_MS`` over the mean of the two kernel times; calibrated time
    is wall time integrated against that speed, with the kernel's own run
    time cut out.
    """

    def __init__(self) -> None:
        #: (wall time the sample began, wall time it ended, kernel ms)
        self.marks = []

    def sample(self) -> float:
        """Time the kernel once and return the wall time afterwards.

        A first untimed call re-warms the caches the workload has just
        evicted, so the sample does not depend on the workload.
        """
        began = perf_counter()
        _kernel()
        t0 = perf_counter()
        _kernel()
        ended = perf_counter()
        self.marks.append((began, ended, 1e3 * (ended - t0)))
        return ended

    @property
    def speed(self) -> float:
        """Median machine speed over the samples: below 1 when contended."""
        return REFERENCE_MS / statistics.median(ms for _, _, ms in self.marks)

    def elapsed(self, times):
        """Calibrated seconds from the end of the first sample to each of
        ``times`` (ascending wall times after that sample)."""
        out = []
        done = 0.0  # calibrated seconds up to the end of marks[i]
        i = 0
        for t in times:
            while i + 1 < len(self.marks) and self.marks[i + 1][0] <= t:
                done += (self.marks[i + 1][0] - self.marks[i][1]) * self.speed_after(i)
                i += 1
            out.append(done + (t - self.marks[i][1]) * self.speed_after(i))
        return out

    def speed_after(self, i: int) -> float:
        """Speed over the stretch of workload that follows ``marks[i]``."""
        ms = self.marks[i][2]
        if i + 1 < len(self.marks):
            ms = 0.5 * (ms + self.marks[i + 1][2])
        return REFERENCE_MS / ms
