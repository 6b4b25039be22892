"""The machine's speed during a run, from a fixed reference computation.

On a machine whose cores other tenants share, the same code runs up to
1.7 times slower or faster for minutes at a time, in CPU time as much as
in wall time, and every algorithm of a run moves with it: in ten
consecutive 40 s runs of `error-curves`, the median curve pass read from
1.75 s to 3.08 s.  Wall times taken a few minutes apart then differ by
more than any change worth measuring.

The runner times `reference_work` between operations, about every
REFERENCE_EVERY_S seconds.  A run's timings are scaled by REFERENCE_S
over the median reference time of the same run, so that they read as
times at the speed the machine had when REFERENCE_S was measured.  The
work calls numpy only, never `rrqr`, so no change to the program moves
it; a thread the program left running would, and the runner reports a
run in which one appears as incorrect.
"""

from __future__ import annotations

import functools
import math
import os
import time

import numpy as np

# Median of `reference_seconds()` over runs of every workload on the
# machine of the README's reference figures.
REFERENCE_S = 0.034
# Seconds between reference timings; the runner times one before the
# first operation that starts this long after the previous timing.
REFERENCE_EVERY_S = 0.5

_MASK = (1 << 64) - 1


@functools.cache
def _inputs():
    # made at the first call, after set-up, so that peak_rss_mb leaves them out
    gen = np.random.default_rng(20260101)
    return np.asfortranarray(gen.standard_normal((192, 128))), gen.standard_normal((640, 640))


def reference_work() -> None:
    """About equal parts of the three kinds of work the QR routines do:
    integer arithmetic in Python (25,000 xorshift steps, as the
    pure-Python RNG), a column-by-column Householder loop over small numpy
    calls (a fixed 192 x 128 panel), and a level-3 product (a fixed
    640 x 640 matrix squared)."""
    x = 0x9E3779B97F4A7C15
    for _ in range(25_000):
        x ^= (x << 13) & _MASK
        x ^= x >> 7
        x ^= (x << 17) & _MASK
    panel, square = _inputs()
    a = panel.copy(order="F")
    for j in range(a.shape[1]):
        v = a[j:, j].copy()
        v[0] += math.copysign(np.linalg.norm(v), v[0])
        v /= np.linalg.norm(v)
        a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
    square @ square


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def process_threads() -> int:
    """Operating-system threads of this process."""
    return len(os.listdir("/proc/self/task"))
