"""Speed calibration for a shared machine.

The speed of a vCPU on a shared host drifts from one fraction of a second
to the next (measured on a shared 2-vCPU virtual machine: a fixed loop varied by 30%
between quartiles, and whole 10-second runs by 17-33%).  The benchmark runs
this fixed kernel, which uses no layext code, before every ~50 ms of timed
work and rescales that work's times by REFERENCE_S / kernel time.  Reported
times are therefore in milliseconds of a machine on which the kernel takes
REFERENCE_S; the raw times are printed beside them.  A change to the program
moves the rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0025  # the kernel's typical time on the machine the bounds were set on
SPAWN_REFERENCE_S = 0.043  # CPU time of a bare `python -c pass` child there


def _kernel():
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    counts = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, counts


def kernel_s() -> float:
    """CPU time of one run of the calibration kernel (time the process is not running is left out)."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0



def spawn_s() -> float:
    """CPU time (parent and child) of starting a bare interpreter: `python -c pass`."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.thread_time()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() - t0 + (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


class Calibration:
    """When to run the kernel, and the factor it gives.

    In-process work runs the kernel every 50 ms and uses it alone.  Work in
    child processes (`cli`) is dominated by interpreter start-up, so it
    starts a bare interpreter every 0.4 s instead and uses the median of the
    last five, since single start-ups vary by 20%.
    """

    def __init__(self, children: bool):
        self.children = children
        self.every_s = 0.4 if children else 0.05
        self.samples = []

    def slow_factor(self) -> float:
        """The factor of the host's slow moments: the samples' upper quartile.

        For a tail of queries shorter than the calibration interval: they
        are short enough to fall entirely into such moments, which every run
        has, and rescaling each by the sample taken before it (often in a
        faster moment) would inflate them instead.  A tail of longer queries
        is rescaled one by one (run.py).
        """
        ref = SPAWN_REFERENCE_S if self.children else REFERENCE_S
        if len(self.samples) < 2:
            return ref / self.samples[0]
        return ref / statistics.quantiles(self.samples, n=4)[2]

    def factor(self) -> float:
        if self.children:
            self.samples.append(spawn_s())
            return SPAWN_REFERENCE_S / statistics.median(self.samples[-5:])
        self.samples.append(kernel_s())
        return REFERENCE_S / self.samples[-1]


class Interleaved:
    """Rescaled wall time of work that cannot stop for calibration (a set-up).

    A timer signal runs the kernel every EVERY_S of wall time while the work
    goes on; each stretch of work is rescaled by the kernel run before it, as
    the timed phase is.  The kernel's own time is left out.  Use as a context
    manager; `raw` and `rescaled` hold the totals afterwards.
    """

    EVERY_S = 0.05

    def __enter__(self):
        self.raw = self.rescaled = 0.0
        self.factor = REFERENCE_S / kernel_s()
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def _add(self):
        dt = time.perf_counter() - self.mark
        self.raw += dt
        self.rescaled += dt * self.factor

    def _tick(self, *_):
        self._add()
        self.factor = REFERENCE_S / kernel_s()
        self.mark = time.perf_counter()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._add()
        signal.signal(signal.SIGALRM, self.previous)
        return False
