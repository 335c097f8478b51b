"""A speed gauge: a fixed reference kernel sampled all through a run.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within seconds as other tenants load it. A process's CPU time slows
with its wall time, so the drift is not descheduling, and no statistic over
the run's own timings removes it: ten runs of the same code spread by 15-25%.

The sampler runs a fixed kernel of the same kind of work as the program
(small numpy products, dropout masks from a seeded generator, float
arithmetic) from a SIGALRM handler every INTERVAL_S seconds, on the same core
and in the same process as the timed work, and records how long it took.
``clock()`` leaves out the time spent in the handler, so every timing of the
program excludes the gauge. Each timed set-up and pass is then scaled by
REF_S / (mean kernel time while it ran): the seconds it would have taken at
the host's reference speed. Sampling evenly in time matters: readings taken
only between long calls miss the drift inside them.

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the scaled figures as it moves the raw ones. The
raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
# Imported here, not on first use: the handler may interrupt the program while
# it imports numpy.random, and importing it again from there recurses.
from numpy.random import default_rng

# Median seconds of one reference_kernel() call on the host the bounds were
# set on (2 vCPUs of a shared x86-64 host, numpy 2.4 with OpenBLAS, 1 thread).
REF_S = 0.0058
INTERVAL_S = 0.1
# A segment with fewer readings of its own is scaled by the nearest ones.
MIN_READINGS = 20

_W = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


def reference_kernel() -> float:
    # Numbers only: no lists or strings, so the kernel leaves nothing for the
    # cyclic garbage collector and never triggers a collection of the
    # program's objects.
    rng = default_rng(12345)
    acc = 0.0
    for _ in range(550):
        v = rng.standard_normal(16)
        keep = rng.random(16) >= 0.5
        h = np.tanh(_W @ (v * keep))
        acc += float(h @ h)
    return acc


class Sampler:
    """Times reference_kernel() from a SIGALRM handler while it runs."""

    def __init__(self):
        self.readings: list[float] = []
        self.stolen_s = 0.0  # wall time spent in the handler
        self.running = False

    def _handler(self, signum, frame):
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        self.readings.append(took)
        self.stolen_s += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.running = False

    @contextlib.contextmanager
    def paused(self):
        """No readings while a child process has the core."""
        was_running = self.running
        if was_running:
            self.stop()
        try:
            yield
        finally:
            if was_running:
                self.start()

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Multiply a time by this for the time at reference speed.

        It uses the readings taken while the timed segment ran, between the
        indices first and last of ``readings``, as the speed drifts within a
        run. A segment too short for MIN_READINGS readings of its own uses the
        MIN_READINGS readings nearest to it in time.
        """
        n = len(self.readings)
        last = n if last is None else last
        if last - first < MIN_READINGS:
            first = max(0, min((first + last - MIN_READINGS) // 2, n - MIN_READINGS))
            last = first + MIN_READINGS
        return REF_S / statistics.fmean(self.readings[first:last])


SAMPLER = Sampler()


def clock() -> float:
    """time.perf_counter() less the time spent in the sampler's handler."""
    return time.perf_counter() - SAMPLER.stolen_s
