"""A probe of the machine's speed, sampled while the timed units run.

The benchmark runs on shared virtual machines whose speed swings by up to
40% for seconds to minutes at a time while the process keeps its CPU: the
other tenants of a physical core slow it down without taking it away, so
neither CPU time nor a best-of-repeats removes it.  `SpeedProbe` times a
fixed pure-Python loop from a SIGALRM handler every `INTERVAL_S` seconds,
in the same thread as the units, and `corrected` scales each unit's time
by `REFERENCE_S` over the probe's median time around the unit: the time the
unit would take on a machine where the probe takes `REFERENCE_S`.  The
reference is a constant, not the fastest sample of the run, because a run
that is slow from end to end has no fast sample to compare with.  The probe
does not touch `ittm`, so a change to the program moves the corrected time
in the same proportion as the measured one.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from itertools import accumulate
from time import perf_counter

INTERVAL_S = 0.02
# the probe's fastest time on the machine the benchmark was tuned on (a
# 2-vCPU virtual machine, Python 3.11), so that there, on a quiet machine,
# corrected and measured times agree
REFERENCE_S = 120e-6
# samples this far either side of a unit also count towards its speed, so
# a unit shorter than the interval still has a few samples around it
WINDOW_S = 0.1


def spin() -> int:
    """The probe's fixed work: about 0.1 ms of integer arithmetic that
    allocates nothing the cyclic garbage collector sees."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager: samples the probe while active.  Samples taken
    inside a unit are subtracted from that unit's time by `corrected`."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        spin()
        self.starts.append(t0)
        self.lengths.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        """Median probe time over `REFERENCE_S`."""
        return statistics.median(self.lengths) / REFERENCE_S

    def corrected(self, starts, seconds) -> list[float]:
        """Each unit's seconds, less the probe samples taken inside it,
        times `REFERENCE_S` over the median probe time within the unit and
        `WINDOW_S` either side.  `starts` is ascending, on the
        `perf_counter` clock."""
        sums = [0.0, *accumulate(self.lengths)]
        out = []
        for start, secs in zip(starts, seconds):
            end = start + secs
            own = sums[bisect_left(self.starts, end)] - sums[bisect_left(self.starts, start)]
            lo = bisect_left(self.starts, start - WINDOW_S)
            hi = bisect_left(self.starts, end + WINDOW_S)
            probe = statistics.median(self.lengths[lo:hi]) if hi > lo else REFERENCE_S
            out.append((secs - own) * REFERENCE_S / probe)
        return out
