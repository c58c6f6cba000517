"""Host-speed calibration: a fixed kernel timed between the benchmark's ops.

On a shared host other tenants slow this process down in phases lasting
seconds to minutes, and interpreter-bound code suffers most: up to about 2x.
The kernel is interpreter-bound code of the same kind as the solver's search
and the set-up's JSON and random draws, and it does not call `baoc`, so no
change to the program can move it. A timed interval is divided by its host
factor: the kernel's time around the interval over its calm-host time. The
result reads as seconds at calm-host speed.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# Kernel time in a calm phase of a 2-vCPU Xeon host: the 10th percentile of
# 400 timings. Only its ratio to the live timings matters.
CALM_S = 0.0054

_ROWS = [np.random.default_rng(k).standard_normal(17) for k in range(12)]


def kernel() -> float:
    """Interpreter-bound: calls, small-array sorts, scalar reads, float adds."""
    total = 0.0
    for _ in range(120):
        for row in _ROWS:
            for j in map(int, np.argsort(row, kind="stable")[:4]):
                total += float(row[j])
    return total


class HostClock:
    """Kernel samples over a run; maps a timed interval to its host factor."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self.times.append(self.clock())

    def factor(self, start: float, end: float) -> float:
        """Mean of the last sample before `start` and the first after `end`, over calm."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return (self.samples[before] + self.samples[after]) / 2.0 / CALM_S
