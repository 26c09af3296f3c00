"""Host speed, read beside every timed region, to put times on one scale.

The benchmark runs on a few cores of a shared host whose speed moves by
20-70% over seconds to minutes (other tenants' load on the shared caches
and cores), and the process's CPU time moves with its wall time, so neither
can be read as the program's own cost.  But the drift slows interpreter-bound
code alike: timed alternately on such a host, a dict loop and
``parse_sacct_log`` drifted by 22-27% each while their ratio moved by 3%
(fedbench/NOTES.md, "Steadiness").

So every timed region is bracketed by *readings*: the time of a fixed
pure-Python kernel, taken right before and right after the region and,
inside it, at the first call boundary after every tenth of a second.  Each
stretch between two readings is scaled to the host at its reference speed,
``wall * REFERENCE_S / reading``, with the median of the readings near it.
``REFERENCE_S`` is the kernel's usual time on the reference machine, so a
scaled time reads as seconds on that machine.  The kernel does not touch the
program, so a change that makes the program faster lowers the scaled times in
the same proportion as the wall times.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from typing import Any, Callable

#: the kernel's median wall time on the reference machine (2-CPU VM,
#: Python 3.11, Intel Xeon at 2.1 GHz)
REFERENCE_S = 0.0023
#: kernel runs per reading; the reading is their median, so one
#: interruption does not move it
RUNS = 3
#: a timed region takes a new reading at the first call boundary after
#: this long, so a long region follows the host's speed within it
INTERVAL_S = 0.1
#: readings this close to a segment count towards its speed
HALFWIDTH_S = 0.5


def kernel() -> int:
    """Fixed interpreter-bound work: dict updates, string building, a sort
    and attribute-free arithmetic, the operations the program's ETL,
    warehouse and serving layers spend their time in."""
    counts: dict[int, int] = {}
    for i in range(10000):
        key = (i * 7919) & 511
        counts[key] = counts.get(key, 0) + i
    words = sorted(f"{k}:{v}" for k, v in counts.items())
    return len("|".join(words))


def reading() -> float:
    """One reading of the host's current speed: the kernel's median time.

    The cyclic collector is off while the kernel runs: a collection there
    would walk the program's heap, and the reading would then follow the
    heap's size rather than the host's speed.
    """
    samples = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RUNS):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(samples)


class Speedometer:
    """Times regions of calls and scales them to the reference speed.

    A timed region is cut into *segments* at the client's call boundaries
    once ``INTERVAL_S`` has passed, with a reading at every cut, so a
    region of many calls follows the host's speed as it moves.  A segment
    is scaled by the median of the readings taken from ``HALFWIDTH_S``
    before it starts to ``HALFWIDTH_S`` after it ends (its own two among
    them), which follows drift over seconds without following the jitter
    of a single reading.  The readings are not part of any time:
    :meth:`clock` stands still while one runs.
    """

    def __init__(self, tracer=None, interval_s: float = INTERVAL_S) -> None:
        self.tracer = tracer
        self.interval_s = interval_s
        #: (clock time, kernel seconds) of every reading, in time order
        self.readings: list[tuple[float, float]] = []
        #: (start, end) clock times of every timed segment
        self.segments: list[tuple[float, float]] = []
        #: wall time spent taking readings, which :meth:`clock` leaves out
        self.reading_s = 0.0
        #: threads alive at any reading beyond the main one: a thread that
        #: competes for the interpreter would slow the kernel and make the
        #: program's time read low, so the caller turns this into a failure
        self.extra_threads = 0
        self._mark: float | None = None  # the current segment's start

    def clock(self) -> float:
        """Wall clock that stands still while a reading is taken."""
        return time.perf_counter() - self.reading_s

    def _read(self) -> float:
        """Take a reading; returns the clock time it was taken at."""
        start = time.perf_counter()
        at = start - self.reading_s
        self.extra_threads = max(self.extra_threads, threading.active_count() - 1)
        if self.tracer is not None:
            with self.tracer.span("bench.speed"):
                value = reading()
        else:
            value = reading()
        self.readings.append((at, value))
        self.reading_s += time.perf_counter() - start
        return at

    def _cut(self) -> None:
        end = self.clock()
        self.segments.append((self._mark, end))
        self._read()
        self._mark = end

    def checkpoint(self) -> None:
        """At a call boundary: cut the current segment if it is long enough."""
        if self._mark is not None and self.clock() - self._mark >= self.interval_s:
            self._cut()

    def time(self, fn: Callable[[], Any]) -> tuple[float, range, Any]:
        """``fn()`` timed: (wall seconds, its segments, result)."""
        self._mark = self._read()
        first = len(self.segments)
        result = fn()
        self._cut()
        self._mark = None
        segments = range(first, len(self.segments))
        return sum(e - s for s, e in self.segments[first:]), segments, result

    def scaled(self, segments: range, halfwidth_s: float = HALFWIDTH_S) -> float:
        """The segments' time at the reference speed."""
        times = [t for t, _ in self.readings]
        total = 0.0
        for start, end in (self.segments[i] for i in segments):
            lo = bisect.bisect_left(times, start - halfwidth_s)
            hi = bisect.bisect_right(times, end + halfwidth_s)
            near = statistics.median(v for _, v in self.readings[lo:hi])
            total += (end - start) * REFERENCE_S / near
        return total
