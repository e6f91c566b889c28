"""Machine-speed sampling, so that times can be scaled to a reference speed.

The benchmark runs on a shared host whose speed for the same single-threaded
work drifts by up to 1.8x within seconds.  A ``Sampler`` runs a fixed job
(``probe``, about half a millisecond of the kinds of work the package does:
integer loops, tuple-keyed dicts and sorting, ``Fraction`` sums and small
numpy array operations, none of it package code) from a SIGALRM handler
every ``INTERVAL_S`` of wall time while the timed phase runs, and records when
it ran and how long it took.  A stretch of work is then reported as

    raw seconds (probe time taken out) * PROBE_REF_S / median probe nearby

i.e. the seconds it would have taken on a machine that runs the probe in
``PROBE_REF_S``.  Work that gets faster gets faster in these seconds too; a
slow spell of the host slows the probe as much as the work and cancels out.
The handler only runs between bytecodes of the main thread and touches no
state of the package.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Probe duration the scaled times refer to: its typical duration on a
# 2 GHz Xeon vCPU (CPython 3.11) when the host is quiet.  A constant, so
# figures from different runs and commits compare directly.
PROBE_REF_S = 0.0004
INTERVAL_S = 0.02
WINDOW_S = 0.05  # probes this far outside a stretch still count for it


def probe() -> int:
    s = 0
    for i in range(1800):
        s += i * i % 7
    table = {}
    for i in range(450):
        table[(i * 7919 % 4001, i & 31)] = i
    s += len(sorted(table, key=lambda k: k[1]))
    f = Fraction(0)
    for i in range(1, 45):
        f += Fraction(i, i * i + 1)
    a = np.arange(64, dtype=np.int64)
    for i in range(45):
        a = np.minimum(a + i, 1000)
    return s + f.numerator % 7 + int(a.sum())


def probe_durations(count: int) -> list[float]:
    out = []
    for _ in range(count):
        t0 = perf_counter()
        probe()
        out.append(perf_counter() - t0)
    return out


class Sampler:
    def __init__(self):
        self.at: list[float] = []      # perf_counter() when each probe started
        self.took: list[float] = []    # its duration, handler overhead included
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def start(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def raw(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent outside the probes."""
        lo, hi = bisect.bisect_left(self.at, a), bisect.bisect_left(self.at, b)
        return b - a - sum(self.took[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """``raw(a, b)`` at the reference speed, from the probes around it."""
        lo = bisect.bisect_left(self.at, a - WINDOW_S)
        hi = bisect.bisect_right(self.at, b + WINDOW_S)
        if hi - lo < 3:  # too few nearby: take the nearest few
            mid = bisect.bisect_left(self.at, (a + b) / 2)
            lo, hi = max(0, mid - 2), min(len(self.at), mid + 2)
        return self.raw(a, b) * PROBE_REF_S / statistics.median(self.took[lo:hi])
