"""Machine-speed reference: a fixed kernel, timed between operations.

The benchmark's host shares its cores with other tenants, and its speed
for the same code moves by a third or more over seconds to minutes.  A
run therefore times this kernel, which does not use the program, every
``EVERY_S`` seconds between operations (the median of ``RUNS`` runs
each time), and scales each timed quantity by
``REFERENCE_S`` over the kernel times measured next to it.  The result
reads as seconds on a machine that runs the kernel in ``REFERENCE_S``;
a change to the program moves it as it moves the raw wall time, and the
host's drift, which slows kernel and program alike, cancels out.

The kernel mixes what the program's time is made of: interpreted Python
and numpy calls on arrays of a few thousand elements and on small dense
matrices.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Any fixed value works.  The kernel took 3-5 ms on the 2-vCPU Xeon VM
# the benchmark was written on (Python 3.11, numpy 2.4), depending on
# the host's load.
REFERENCE_S = 0.005
EVERY_S = 0.3
RUNS = 3

_X = np.linspace(-4.0, 4.0, 4096)
_M = np.eye(16) * 16.0 + np.sin(np.arange(256.0)).reshape(16, 16)
_B = np.cos(np.arange(16.0))


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(24_000):
        acc += i * i % 7
    for _ in range(24):
        y = np.exp(-_X * _X) * np.cos(_X)
        acc += float(np.cumsum(y)[-1])
        acc += float(np.linalg.solve(_M, _B)[0])
    return time.perf_counter() - t0


class Speed:
    """Reference-kernel times taken during a run, and the time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in the kernel, to leave out of timed work
        self._last = -float("inf")

    def sample(self) -> int:
        """Time the kernel now; return the sample's index."""
        t0 = time.perf_counter()
        self.samples.append(statistics.median(kernel_s() for _ in range(RUNS)))
        self._last = time.perf_counter()
        self.spent += self._last - t0
        return len(self.samples) - 1

    def before_op(self) -> int:
        """Index of the latest sample, taking a new one if ``EVERY_S`` has passed."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale_at(self, i: int) -> float:
        """Scale for an operation between samples ``i`` and ``i + 1``."""
        after = self.samples[min(i + 1, len(self.samples) - 1)]
        return REFERENCE_S / ((self.samples[i] + after) / 2.0)
