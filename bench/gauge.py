"""Machine speed, read off a fixed reference workload.

On a shared host the same fairdiv operation runs up to 1.6 times faster or
slower from one minute to the next, as other tenants come and go. The
benchmark therefore times, between operations, a reference workload of its
own: exact Gaussian elimination on a fixed 9x10 rational matrix, a few
milliseconds of the same ``Fraction`` arithmetic the solver spends its time
in. An operation's wall time, times ``REFERENCE_S`` over the reference time
read around it, is its time at reference speed: the speed at which the
reference workload takes ``REFERENCE_S``. The reference is not fairdiv
code, so no change to fairdiv moves it.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

N = 9
MATRIX = [[Fraction((i * 7 + j * 13) % 19 - 9, 1 + (i + 2 * j) % 5) + (20 if i == j else 0)
           for j in range(N + 1)] for i in range(N)]
REFERENCE_S = 0.005  # the reference workload's usual time on a 2-vCPU x86-64 VM, Python 3.11
REPS = 3
INTERVAL_S = 0.25  # longest stretch of operations between two readings


def eliminate(matrix) -> list:
    """Gauss-Jordan elimination without row swaps; the diagonal dominates."""
    a = [row[:] for row in matrix]
    for c in range(len(a)):
        pivot = a[c][c]
        for r in range(len(a)):
            if r != c and a[r][c]:
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def reference_seconds() -> float:
    """Median wall time of REPS runs of the reference workload."""
    times = []
    for _ in range(REPS):
        start = perf_counter()
        eliminate(MATRIX)
        times.append(perf_counter() - start)
    return statistics.median(times)


class Gauge:
    """Readings of the reference time, taken between operations. An
    operation that starts after reading ``i`` and ends before reading
    ``i + 1`` is scaled by the mean of the two."""

    def __init__(self):
        for _ in range(10):
            reference_seconds()
        self.readings = []
        self.last = None

    def read(self) -> int:
        """Take a reading now; returns its index."""
        self.readings.append(reference_seconds())
        self.last = perf_counter()
        return len(self.readings) - 1

    def read_if_due(self) -> int:
        """Take a reading if INTERVAL_S has passed since the last one;
        returns the index of the latest reading."""
        if self.last is None or perf_counter() - self.last >= INTERVAL_S:
            return self.read()
        return len(self.readings) - 1

    def scale(self, index: int) -> float:
        """Factor from wall seconds to seconds at reference speed, for work
        done between readings ``index`` and ``index + 1``."""
        return REFERENCE_S / ((self.readings[index] + self.readings[index + 1]) / 2)
