"""Processor-speed reference for the benchmark's gated time metrics.

The machines the benchmark runs on change speed by 10-50% within seconds
(frequency changes, neighbours on a shared host).  A fixed reference
computation, sampled every 20 ms of CPU time during a pass, measures the
speed the pass actually ran at; the pass's CPU time is divided by
``(median(samples) / NOMINAL_S) ** EXPONENT``.  The reference mixes the
package's kinds of work: Fraction arithmetic, big-integer arithmetic and
dict updates.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

# Median CPU time of one sample on the 2-core x86-64 virtual machine the benchmark
# was tuned on.  It only sets the scale: scaled times read as seconds on
# that machine at that speed.
NOMINAL_S = 0.0003
# The small, cache-resident reference speeds up and slows down more than
# the workloads do.  Over two sets of ten runs per workload, one made while
# the machine ran about 1.5 times faster than during the other, the exponent
# 0.6 kept every workload's median CPU time within 11% across the sets,
# where 1.0 left sign-check 28% apart and no scaling left tables 29% apart.
EXPONENT = 0.6
INTERVAL_S = 0.02
_BIG = 3 ** 300


def sample() -> float:
    """CPU seconds one fixed batch of reference work takes.  The garbage
    collector is off meanwhile, so a sample never pays for collecting the
    measured program's heap (nor is that collection taken out of the pass)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        acc, x = {}, Fraction(1, 3)
        for i in range(60):
            x = x * Fraction(i + 1, i + 2) + 1
            acc[i % 13] = acc.get(i % 13, 0) + _BIG * i
        return time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()


def slowdown(samples: Sequence[float]) -> float:
    """The factor to divide a pass's CPU time by: how much slower than
    nominal the samples ran, to the power EXPONENT (1.0 = nominal)."""
    return (statistics.median(samples) / NOMINAL_S) ** EXPONENT


class Sampler:
    """Takes a reference sample every INTERVAL_S of this process's CPU time
    (SIGPROF) while the ``with`` block runs.  ``spent`` is the CPU time the
    samples themselves took, to be subtracted from the measured time."""

    def __init__(self):
        self.samples: List[float] = []

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(sample())

    @property
    def spent(self) -> float:
        return sum(self.samples)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(sample())
