"""A wall clock that reports how fast the host was while it ran.

The benchmark's host is a 2-vCPU VM sharing its physical cores with
other tenants. Its speed swings by up to 2x over seconds to minutes
(the same pure-Python loop alternates between about 0.33 ms and 0.65
ms), and a whole 10-second run can fall into a slow stretch, so no
median inside one run removes the swing from run-to-run comparisons.

:class:`HostClock` samples the host's speed while the benchmark runs:
a SIGALRM timer interrupts the process every ``INTERVAL_S`` seconds and
times a fixed pure-Python probe that touches no engine state. The time
spent in probes is subtracted from :meth:`HostClock.now`, so timings
taken with it exclude the probes. :meth:`HostClock.speed` is the
reference probe duration over the mean probe duration in a window: 1.0
on the reference host in its fast state, 0.5 when everything runs
twice as slowly. The benchmark reports wall seconds times that speed,
i.e. wall seconds rescaled to the reference host, and prints the raw
wall seconds beside them.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import List, Optional

#: Mean probe duration on the reference host (a 2-vCPU Intel Xeon VM,
#: Python 3.11) when it is not slowed by its neighbours.
REFERENCE_PROBE_S = 3.3e-4
INTERVAL_S = 0.025
#: Half-width of the window :meth:`HostClock.speed_at` averages over:
#: about 40 probes, while the host's slow stretches last seconds.
HALF_WINDOW_S = 0.5


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> list:
    """Fixed interpreter work: tuples, a dict of lists, slots, a sort."""
    rows = [(i, i * 31 % 97, "k%d" % (i % 50)) for i in range(400)]
    groups: dict = {}
    for row in rows:
        pair = _Pair(row[0], row[2])
        groups.setdefault(row[2], []).append((pair.a, row[1]))
    return sorted((k, sum(v for _a, v in lst)) for k, lst in groups.items())


class HostClock:
    """``now()`` excludes probe time; ``speed`` and ``speed_at`` rate
    the host over a window of probes."""

    def __init__(self) -> None:
        #: Probe durations, and their start times on :meth:`now`'s clock.
        self.probes: List[float] = []
        self.stamps: List[float] = []
        self._cumulative: List[float] = [0.0]
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.probes)

    def speed(self, since: int, until: Optional[int] = None) -> float:
        window = self.probes[since:until]
        if not window:  # a window shorter than one interval
            window = self.probes[-1:]
        return REFERENCE_PROBE_S / statistics.fmean(window)

    def speed_at(self, t: float) -> float:
        """Host speed over the probes within ``HALF_WINDOW_S`` of ``t``."""
        lo = bisect.bisect_left(self.stamps, t - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t + HALF_WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest one
            lo = max(0, min(lo, len(self.probes) - 1))
            hi = lo + 1
        mean = (self._cumulative[hi] - self._cumulative[lo]) / (hi - lo)
        return REFERENCE_PROBE_S / mean

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.stamps.append(self.now())
            begin = time.perf_counter()
            probe()
            elapsed = time.perf_counter() - begin
            self.probes.append(elapsed)
            self._cumulative.append(self._cumulative[-1] + elapsed)
        finally:
            if collecting:
                gc.enable()
            self._paused += time.perf_counter() - start
            self._busy = False
