"""Timing corrected for the host's CPU speed.

On the shared 2-core reference VM each virtual CPU switches, on its own,
between a fast and a slow state (a fixed pure-Python loop takes 1.5 to
1.8 times longer in the slow one), in spells from a second to a minute.
The raw wall time of a 25 s run therefore moves by +-20% with the host,
whatever estimator is taken over its passes.  So every timed interval is
bracketed by a *probe*: a fixed pure-Python loop that belongs to the
benchmark, not to the program.  An interval's corrected time is

    raw time x PROBE_REFERENCE_S / mean(probe before, probe after)

that is, the time the interval would have taken at the CPU speed at
which the probe takes :data:`PROBE_REFERENCE_S`.  On the reference VM
this cut the spread of paper-figs passes from 15-23% to 4-7%.  Raw
times are kept beside the corrected ones and printed in the run's
``notes`` line.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

#: Probe time of the reference VM's fast state (about 1 ms per burst).
PROBE_REFERENCE_S = 0.001
PROBE_LOOPS = 16000
PROBE_BURSTS = 4


def _burst():
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


def probe():
    """CPU seconds the probe loop takes now on this CPU: the mean of a
    few back-to-back bursts.  Thread CPU time leaves out time when
    another process had the CPU.  (The state can flip within a burst;
    the mean follows the share of time spent in each state, where the
    fastest burst would not: over 90 s of warm campaign-grid reruns it
    left a spread of 5.1% against 6.8%.)"""
    total = 0.0
    for _ in range(PROBE_BURSTS):
        start = time.thread_time()
        _burst()
        total += time.thread_time() - start
    return total / PROBE_BURSTS


def cpus():
    return sorted(os.sched_getaffinity(0))


@contextmanager
def pinned(cpu):
    """Run this process (and the children it starts) on ``cpu`` only."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def probe_all():
    """Mean probe time over every CPU this process may run on: the
    speed of a pool whose workers spread over all of them."""
    times = []
    for cpu in cpus():
        with pinned(cpu):
            times.append(probe())
    return sum(times) / len(times)


def correct(raw, before, after):
    """``raw`` seconds measured between probes ``before`` and ``after``,
    expressed at the reference speed."""
    return raw * 2 * PROBE_REFERENCE_S / (before + after)


class SpeedClock:
    """Consecutive laps of wall time with a probe between two laps.

    ``lap()`` ends the current lap and returns ``(raw, corrected)``; the
    probe it runs is not timed in either lap.  ``raw_s`` and
    ``corrected_s`` sum the laps taken so far.
    """

    def __init__(self, probe_fn=probe):
        self._probe = probe_fn
        self._before = probe_fn()
        self.raw_s = self.corrected_s = 0.0
        self._start = time.perf_counter()

    def lap(self):
        raw = time.perf_counter() - self._start
        after = self._probe()
        corrected = correct(raw, self._before, after)
        self._before = after
        self.raw_s += raw
        self.corrected_s += corrected
        self._start = time.perf_counter()
        return raw, corrected
