"""The host's speed, sampled while the benchmark runs, and times scaled by it.

The benchmark runs on a few cores of a shared host.  How fast those cores run
Python swings by about +-30% and holds each level for 5-30 s, because other
tenants share the physical cores; both wall and CPU time swing with it.  That
is far more than the changes the benchmark must resolve.

While a :class:`SpeedSampler` runs, an interval timer interrupts the process
every ``INTERVAL_S`` and runs a fixed burst of reference work: truncated
products of two sparse polynomials with ``Fraction`` coefficients, the kind
of arithmetic the exact pipeline spends its time in, written here in plain
Python and sharing no code with the package under test.  Each burst's speed
(bursts per second, by wall and by CPU clock) is the host's speed at that
moment.  A timed window is reported in reference seconds: its own time, less
the bursts inside it, times the window's mean burst speed over
``REFERENCE_RATE``.  A window on a host running at the reference speed reads
its true time; the same work on a host running 30% slower reads about the
same.  Code changes still show, because the reference work never changes.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.1
BURST_PRODUCTS = 2
# Typical bursts per second on a shared 2-vCPU x86_64 Xeon VM under CPython
# 3.11 (from 180 to 430 as its load changed).  It only sets the scale of
# reference seconds; it must never change, or old and new numbers stop being
# comparable.
REFERENCE_RATE = 330.0


def _polynomial(seed: int, terms: int) -> dict:
    out = {}
    for i in range(terms):
        key = ((i * 7 + seed) % 5, (i * 3 + seed) % 4, i % 3)
        out[key] = Fraction((i * 37 + seed) % 23 - 11, (i * 13 + seed) % 17 + 2)
    return out


_LEFT, _RIGHT = _polynomial(1, 20), _polynomial(2, 20)
_DEGREE = 10


def reference_burst() -> dict:
    """A fixed amount of work; the last product is returned so it is consumed."""
    for _ in range(BURST_PRODUCTS):
        acc = {}
        for ka, va in _LEFT.items():
            for kb, vb in _RIGHT.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                if sum(key) <= _DEGREE:
                    acc[key] = acc.get(key, 0) + va * vb
    return acc


@dataclass(frozen=True)
class Mark:
    """Clocks, burst totals and sample count at the start of a window."""

    wall: float
    cpu: float
    burst_wall: float
    burst_cpu: float
    samples: int


@dataclass(frozen=True)
class Window:
    wall_s: float      # wall time, less the bursts inside the window
    cpu_s: float       # CPU time of the process, less the bursts
    speed_wall: float  # mean burst speed by wall clock, over REFERENCE_RATE
    speed_cpu: float   # the same by CPU clock
    samples: int

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed_wall

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed_cpu


class SpeedSampler:
    """Runs a reference burst on every timer tick between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.rates: list = []  # (wall rate, cpu rate) of each burst
        self.burst_wall = 0.0
        self.burst_cpu = 0.0
        self._previous_handler = None

    def _burst(self) -> None:
        t0, c0 = perf_counter(), process_time()
        reference_burst()
        dt, dc = perf_counter() - t0, process_time() - c0
        self.rates.append((1 / dt, 1 / dc if dc > 0 else 1 / dt))
        self.burst_wall += dt
        self.burst_cpu += dc

    def _on_tick(self, signum, frame) -> None:
        self._burst()

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def mark(self) -> Mark:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return Mark(perf_counter(), process_time(), self.burst_wall, self.burst_cpu, len(self.rates))
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def window(self, start: Mark) -> Window:
        """The window from ``start`` to now; one burst is run if no tick fell in it."""
        end = self.mark()
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            if len(self.rates) == start.samples:
                self._burst()
            rates = self.rates[start.samples:]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return Window(
            wall_s=end.wall - start.wall - (end.burst_wall - start.burst_wall),
            cpu_s=end.cpu - start.cpu - (end.burst_cpu - start.burst_cpu),
            speed_wall=statistics.fmean(r[0] for r in rates) / REFERENCE_RATE,
            speed_cpu=statistics.fmean(r[1] for r in rates) / REFERENCE_RATE,
            samples=len(rates),
        )
