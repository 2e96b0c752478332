"""Calibrated time: measured seconds scaled to a fixed reference speed.

The machine this benchmark runs on is a share of a busy host: its speed
drifts by up to ±30% over seconds to minutes, in CPU time as much as in
wall time, so raw times of the same code spread more than a bound can
allow. Three short loops, code of the benchmark and never of the program,
probe the machine's current speed: integer arithmetic in pure Python, a
numpy array operation and ``Fraction`` arithmetic, the three kinds of work
the workloads do. :func:`slowness` is the median over a few rounds of the
mean of their times, each divided by its fixed nominal time.

Work on several threads is probed on every CPU in turn
(:func:`slowness_on_every_cpu`).

A :class:`Clock` times the program's work in chunks of at least
``CHUNK_S`` seconds and probes the machine between chunks, outside the
timed region. Each chunk's seconds are divided by the mean slowness of the
probes just before and just after it. A change to the program moves
calibrated time as it moves raw time; the machine slowing down moves it
much less. Raw seconds are kept beside the calibrated ones.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

import numpy

CHUNK_S = 1.0  # a probe takes ~30 ms: about 3% of the time between probes
# A probe is a warm-up round of the three loops, discarded because it finds
# their code and data evicted from the caches by the program's work, then
# PROBE_ROUNDS rounds whose median is kept: the machine's speed changes
# within milliseconds, and a timer tick can land in any one round.
PROBE_ROUNDS = 12

# small enough that numpy reuses its buffers instead of mapping fresh pages
_ARRAY = numpy.arange(8192, dtype=numpy.int64)


def _int_loop() -> None:
    x, y = 1, 0
    for i in range(3000):
        x, y = (x * 7 + y) % 1009, (y * 3 + x + i) % 1009


def _numpy_loop() -> None:
    for _ in range(6):
        b = (_ARRAY * _ARRAY + 7) % 1009
        b.sort()


def _fraction_loop() -> None:
    f = Fraction(1, 3)
    for i in range(1, 100):
        f = f * Fraction(i + 2, i + 5) + Fraction(1, i * i + 1)


# Typical seconds of each loop, warm, on a 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4). Fixed: they set the unit of calibrated time.
PROBES = ((_int_loop, 0.00077), (_numpy_loop, 0.00072), (_fraction_loop, 0.00078))


def _round() -> float:
    total = 0.0
    for loop, nominal in PROBES:
        start = time.perf_counter()
        loop()
        total += (time.perf_counter() - start) / nominal
    return total / len(PROBES)


def slowness() -> float:
    """The machine's current slowness: 1.0 at the nominal speed, 1.25 when 25% slower."""
    _round()
    return statistics.median(_round() for _ in range(PROBE_ROUNDS))


def slowness_on_every_cpu() -> float:
    """The mean slowness of the CPUs this process may use, probed on each in turn.

    For work spread over threads on all of them: each CPU of a virtual
    machine on a shared host slows on its own, and a probe on one CPU
    tracked such work worse than no calibration at all.
    """
    cpus = os.sched_getaffinity(0)
    try:
        total = 0.0
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            total += slowness()
    finally:
        os.sched_setaffinity(0, cpus)
    return total / len(cpus)


class Clock:
    """Raw and calibrated seconds of the work timed through :meth:`add`."""

    def __init__(self, probe=slowness):
        self._probe = probe
        self.raw = self.calibrated = self._chunk = 0.0
        self._before = probe()

    def add(self, seconds: float) -> None:
        self.raw += seconds
        self._chunk += seconds
        if self._chunk >= CHUNK_S:
            self.close_chunk()

    def close_chunk(self) -> None:
        """Probe now and scale the open chunk by the probes around it."""
        if self._chunk:
            after = self._probe()
            self.calibrated += self._chunk / ((self._before + after) / 2)
            self._before = after
            self._chunk = 0.0
