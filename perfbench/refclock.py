"""Times at a fixed reference speed.

The benchmark shares a few cores of a host whose speed drifts: a fixed
batch of 30 `reduce` operations took from 75 to 112 ms in ten-second
stretches of one two-minute run, and a pure-Python loop drifted with it.
A run then reads what state the host was in more than how fast the
program is.  So every timed interval is rescaled by the speed of a
reference loop sampled around and during it:

    scaled = measured * REF_SECONDS / median(reference samples near it)

A scaled time is the time the interval would take on a machine where the
reference loop takes REF_SECONDS.  While a Clock runs, a timer interrupts
the process every REF_INTERVAL seconds, also in the middle of an
operation, and times one reference loop; that time is taken out of the
interval it fell in.  An interval's samples are those taken from
REF_INTERVAL before it starts to REF_INTERVAL after it ends, so every
interval has at least two, and a 15-second solve about 150.  Over two and
a half minutes, the ten-second medians of the batch above spread 24 %
(quartile distance over median), and its ratio to loops of this kind 3 %.

The reference loop is Fraction arithmetic on growing big integers plus
small allocations, the kind of interpreter work sospgrid does, and it
calls nothing of sospgrid: a change to the program moves the scaled times
just as it moves the measured ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_SECONDS = 0.005  # a round figure: the loop took 4-7 ms on the machine of README.md
REF_INTERVAL = 0.1  # seconds of wall time between two reference samples


def reference_work() -> int:
    """Fraction sums with growing denominators, then small tuples, strings
    and dict entries."""
    s = Fraction(0)
    for i in range(1, 1000):
        s += Fraction(i, i + 7)
    n = 0
    for _ in range(3):  # three small dicts rather than one: little memory
        d = {}
        for i in range(1700):
            d[i, i ^ 5] = [i, str(i)]
        n += len(d)
    return s.denominator % 1009 + n


def reference_sample() -> float:
    """Seconds of one reference loop, with the garbage collector off so that
    it does not collect the program's garbage."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Measures intervals and rescales them to the reference speed.

    Use it as a context manager; it samples the reference loop on entry, on
    exit and every REF_INTERVAL seconds in between (SIGALRM).  ``timed``
    measures one interval and files it into a list, as measured into
    ``raw`` and rescaled into ``store``; the rescaled value is written on
    exit, when the samples after the interval are known.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.paused = 0.0  # seconds spent sampling
        self._pending: list = []
        self._handler = None

    def __enter__(self) -> "Clock":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()
        self._resolve()

    def _tick(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = reference_sample()
        self.samples.append((t0, seconds))
        self.paused += time.perf_counter() - t0

    @contextmanager
    def timed(self, raw: list, store: list):
        """Times the body, less the samples taken during it."""
        paused = self.paused
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        seconds = t1 - t0 - (self.paused - paused)
        raw.append(seconds)
        store.append(None)
        self._pending.append((t0, t1, seconds, store, len(store) - 1))

    def _resolve(self) -> None:
        starts = [t for t, _ in self.samples]
        for t0, t1, seconds, store, i in self._pending:
            lo = bisect.bisect_left(starts, t0 - REF_INTERVAL)
            hi = bisect.bisect_right(starts, t1 + REF_INTERVAL)
            if lo == hi:  # a late timer left none near: take the neighbours
                lo, hi = max(lo - 1, 0), hi + 1
            near = [s for _, s in self.samples[lo:hi]]
            store[i] = seconds * REF_SECONDS / statistics.median(near)
        self._pending.clear()

    def median_sample(self) -> float:
        return statistics.median(s for _, s in self.samples)
