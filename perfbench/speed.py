"""Reference seconds: operation times corrected for the machine's drift.

The benchmark runs on a few cores of a shared host, and the speed of those
cores changes with the load of other tenants: a fixed pure-Python loop runs
up to twice as long in one minute as in the next, and the speed also jumps
from one tenth of a second to the next.  The drift covers whole runs, so no
averaging inside a run removes it.  This module measures that
speed with a fixed reference kernel -- the benchmark's own code, which does
not touch spbw -- and expresses each timed span in reference seconds:

    reference seconds = (wall seconds - sampling) * REF_UNIT_S / kernel seconds

where the kernel seconds are the mean time of the kernel units run just
before the span, while it ran and just after it.  A span is timed under a
:class:`Speedometer`: the caller takes a :meth:`Speedometer.sample` right
before and right after the span, and a SIGALRM handler runs one more unit
every ``period`` seconds, so a span of several seconds carries its own
samples.  The samples nearest the span count, and only those: the speed
changes too fast for samples further away to help.  A set-up is bracketed
by kernel units instead (:func:`bracket`).

A slower program still reads slower: the kernel does not depend on spbw, so
only the machine's share of a change is divided out.  The kernel runs with
the garbage collector off, so the size of the program's heap does not leak
into it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# One kernel unit is worth this many reference seconds: a round figure near
# its time on a calm core of the machine the figures in README.md come from
# (about 1.5 ms).
REF_UNIT_S = 0.002
PERIOD_S = 0.04


def _operand(n: int, salt: int) -> dict:
    """A sparse polynomial in four variables with small rational coefficients:
    the data shape of spbw's scalars and coefficient rings."""
    return {(i % 5, (i * 7 + salt) % 11, (i * 3) % 4, i // 5):
            Fraction((i * 37 + salt) % 101 - 50 or 1, (i * 13) % 17 + 1) for i in range(n)}


_LEFT, _RIGHT = _operand(20, 3), _operand(20, 4)


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out



def kernel() -> float:
    """Run one kernel unit and return its wall seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _product(_LEFT, _RIGHT)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def bracket(fn, *args, units: int = 8):
    """Call ``fn(*args)`` between two runs of kernel units; returns
    (reference seconds, wall seconds, kernel seconds, result)."""
    kernel()  # warm-up, not counted
    samples = [kernel() for _ in range(units)]
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    samples += [kernel() for _ in range(units)]
    unit = statistics.fmean(samples)
    return wall * REF_UNIT_S / unit, wall, unit, result


class Speedometer:
    """Samples the kernel every ``period`` seconds while active.

    Use as a context manager around timed code.  Around a span, take a
    :meth:`sample`, a :meth:`mark`, the span, a :meth:`mark` and a
    :meth:`sample`; then :meth:`seconds` gives its reference seconds.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list = []
        self._previous = None
        self._sampling = False

    def sample(self):
        """Run one kernel unit now and keep its time."""
        self._sampling = True
        try:
            self.samples.append(kernel())
        finally:
            self._sampling = False

    def _tick(self, signum, frame):
        if not self._sampling:  # never time a unit inside another
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        kernel()  # warm-up, not counted
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def mark(self) -> int:
        return len(self.samples)

    def seconds(self, wall: float, first: int, last: int) -> tuple:
        """(reference seconds, wall seconds less sampling) of a span that
        took ``wall`` seconds between marks ``first`` and ``last``, with a
        :meth:`sample` taken right before the first mark and right after the
        last."""
        work = wall - sum(self.samples[first:last])
        near = self.samples[first - 1:last + 1]
        return work * REF_UNIT_S / statistics.fmean(near), work

    def unit_s(self) -> float:
        """Median kernel seconds over the whole activity."""
        return statistics.median(self.samples)
