"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the same code runs up to a third slower for
minutes at a time, whatever it is.  The benchmark runs this loop between
its timed calls and divides every time by the loop's median time over the
run, relative to REFERENCE_S.  Times are then reported as if the machine
ran at the speed it had when the loop took REFERENCE_S.  The loop is the
benchmark's own code, so a change to the library cannot change it; it
mixes the kinds of work the library does: numpy reductions over a
point array, a Gauss elimination written in Python over numpy rows, and
building and looking up tuple keys.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median time of one loop on a 2-core Linux VM with Python 3.11.7 and
# numpy 2.4.6, where the benchmark's bounds were set
REFERENCE_S = 0.021
EVERY_S = 0.5

_POINTS = np.random.default_rng(0).normal(size=(8000, 3))
_MATRIX = np.random.default_rng(1).normal(size=(40, 40)) + 40.0 * np.eye(40)


def reference_loop() -> float:
    s = 0.0
    for _ in range(30):
        s += float(_POINTS.min(axis=0).sum() + _POINTS.max(axis=0).sum())
    a = _MATRIX.copy()
    for k in range(len(a) - 1):
        for i in range(k + 1, len(a)):
            a[i, k + 1:] -= (a[i, k] / a[k, k]) * a[k, k + 1:]
    keys = {}
    for i in range(3000):
        keys[(i, i % 7)] = i
    return s + float(a[-1, -1]) + len(keys)


class SpeedProbe:
    def __init__(self):
        self.times: list = []
        self._last = -float("inf")
        reference_loop()  # warm-up, not timed

    def run(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)

    def maybe_run(self) -> None:
        """Run the loop if EVERY_S has passed since the last run."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.run()

    @property
    def slowdown(self) -> float:
        """How much slower the machine ran during this run than at REFERENCE_S."""
        return statistics.median(self.times) / REFERENCE_S
