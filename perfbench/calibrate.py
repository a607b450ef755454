"""Machine-speed calibration for the end-to-end timings.

The shared host the benchmark runs on changes speed for seconds to minutes at
a time: the same code takes up to 1.7 times as much CPU time in its slow state
as in its fast one, so raw CPU times of one run depend on which state it met.
A fixed calibration kernel, timed right before and right after each timed
piece of work, measures the speed the work ran at. Each timing is reported
scaled to the reference speed, at which the kernel takes
``REFERENCE_KERNEL_S``:

    scaled = cpu_time * REFERENCE_KERNEL_S / kernel_cpu_time

The kernel mixes what the program spends its time on: interpreter-level loops
over lists, small numpy calls on tiny arrays, and a vectorized pass over an
array larger than L2.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.004
REPS = 5

_VALUES = np.arange(1.0, 4097.0)
_LARGE = np.random.default_rng(0).random(1 << 20)


def kernel() -> float:
    tree = [0.0] * 8192
    acc = 0.0
    for i in range(400):
        leaf = (i * 2654435761) % 4096 + 4096
        tree[leaf] = float(i % 97)
        while leaf > 1:
            leaf >>= 1
            tree[leaf] = tree[2 * leaf] + tree[2 * leaf + 1]
        acc += float(np.dot(_VALUES[i % 64:i % 64 + 32], _VALUES[:32]))
        acc += float(_VALUES[np.searchsorted(_VALUES, (i * 7.5) % 4096.0) - 1])
    return acc + float(_LARGE.sum())


def kernel_seconds() -> float:
    """Median CPU time of the kernel over ``REPS`` repetitions."""
    times = []
    for _ in range(REPS):
        start = time.process_time()
        kernel()
        times.append(time.process_time() - start)
    return statistics.median(times)


def scales(kernel_times: list[float]) -> list[float]:
    """One factor per piece of work timed between consecutive kernel timings:
    the reference kernel time over the mean of the two around it."""
    return [2 * REFERENCE_KERNEL_S / (before + after) for before, after in zip(kernel_times, kernel_times[1:])]
