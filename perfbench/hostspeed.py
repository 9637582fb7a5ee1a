"""Timing adjusted for the host's changing speed.

On a shared host the same pass can take 1.7 s or 2.8 s a few seconds
apart, and CPU time moves with wall time, so neither alone gives a
steady number.  ``SpeedClock`` runs a fixed pure-Python kernel (it calls
no p1parts code) from an interval-timer signal every
``SAMPLE_INTERVAL_S`` while a block runs, and once at each end.  Each
stretch of the block between two samples is scaled by
``NOMINAL_KERNEL_S`` over the mean kernel time of those two samples; the
sum is the block's time at the nominal speed.  The kernel's own time is
left out of it.  ``NOMINAL_KERNEL_S`` is the kernel's time on an idle
2-core Xeon at 2.1 GHz, so adjusted seconds are close to wall seconds
there.  ``speed_factor`` gives the same scale for a block that another
process runs, from samples taken just before and after it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.05
NOMINAL_KERNEL_S = 1.8e-4

_A = {(i, j, i * j % 3): (i + 2 * j) % 7 + 1 for i in range(6) for j in range(6)}
_B = {(i, (i + j) % 4, j): (3 * i + j) % 7 + 1 for i in range(5) for j in range(5)}


def kernel():
    """Sparse product of two fixed polynomials mod 7 (dicts of tuples)."""
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = (out.get(m, 0) + c1 * c2) % 7
    return out


def speed_factor() -> float:
    """NOMINAL_KERNEL_S over the kernel's current time, median of five."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return NOMINAL_KERNEL_S / statistics.median(times)


class Timing:
    wall = 0.0      # elapsed seconds, kernel samples included
    adjusted = 0.0  # seconds at the nominal speed, kernel samples excluded


class SpeedClock:
    def __init__(self):
        self._samples = []

    def _sample(self, *_signal_args):
        start = time.perf_counter()
        kernel()
        self._samples.append((start, time.perf_counter()))

    @contextlib.contextmanager
    def timed(self):
        timing = Timing()
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        samples = self._samples
        timing.wall = samples[-1][0] - samples[0][1]
        for (a0, b0), (a1, b1) in zip(samples, samples[1:]):
            speed = 2 * NOMINAL_KERNEL_S / ((b0 - a0) + (b1 - a1))
            timing.adjusted += (a1 - b0) * speed


class WallClock:
    """Plain elapsed time, for passes that must not be interrupted."""

    @contextlib.contextmanager
    def timed(self):
        timing = Timing()
        start = time.perf_counter()
        yield timing
        timing.wall = timing.adjusted = time.perf_counter() - start
