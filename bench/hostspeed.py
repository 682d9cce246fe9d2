"""Host speed, sampled by a fixed reference computation while the calls run.

The benchmark's host is shared: the same round of calls takes up to a third
longer in one minute than in the next, and the slowdown is invisible from
inside the guest (CPU time tracks wall time, steal reads near zero).  So the
host's speed is measured alongside the program.  While a ``Sampler`` is
active, a SIGPROF timer interrupts the process every ``PERIOD_S`` of CPU time
and the handler runs one reference unit and records how long it took.  A
timed call is then reported as its wall time, less the samples taken inside
it, scaled by ``UNIT_NOMINAL_S`` over the mean time per unit of the samples
taken within ``WINDOW_S`` of the call: its time at the reference speed.

A reference unit is the benchmark's own code (the integer product of
checkers.py on C2^4, a ``Fraction`` sum and dict traffic: the kinds of work
the program does), so a change to the program does not change it.  It runs
with the garbage collector off, so the program's heap and gc settings do not
reach it either.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

import checkers as ck

# time of one unit at the reference speed: about the median time of a sampled unit
# on a 2-vCPU Intel Xeon at 2.1 GHz with Python 3.11
UNIT_NOMINAL_S = 1.1e-3
# CPU time between two samples, and how far around a call samples count
PERIOD_S = 0.025
WINDOW_S = 0.25

_TABLE = ck.tower_table(2)
_X = [2, -1, 0, 3, 0, 1, -2, 0, 1, 0, 0, -1, 3, 0, 2, 1]


def unit() -> int:
    y = ck.one(16)
    for _ in range(13):
        y = [v % 1000003 for v in ck.mul(y, _X, _TABLE)]
    f = Fraction(0)
    for k in range(1, 50):
        f += Fraction(1, k)
    d = {}
    for k in range(1500):
        d[k, k % 7] = k
    return y[0] + f.denominator % 7 + len(d)


class Sampler:
    """Samples of the host's speed, taken from a SIGPROF timer while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        unit()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _between(self, start: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, start)
        return self.durations[lo:bisect.bisect_left(self.starts, end)]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less samples, at the reference speed."""
        own = end - start - sum(self._between(start, end))
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if not near:
            return own
        return own * UNIT_NOMINAL_S * len(near) / sum(near)

    def speed(self) -> float:
        """The median host speed over all samples, as a share of the reference."""
        ordered = sorted(self.durations)
        return UNIT_NOMINAL_S / ordered[len(ordered) // 2] if ordered else 1.0
