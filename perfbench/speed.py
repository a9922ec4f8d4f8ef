"""Host speed, sampled while an untraced pass runs.

The benchmark shares its host, whose speed drifts by tens of percent over
tens of seconds.  While an untraced pass runs, a timer signal runs a fixed
pure-Python loop every ``PERIOD_S``.  The loop does no patrolsim work and
keeps no objects, so its time says how fast the host runs Python at that
moment.  Timed sections exclude the loop's own time, and a pass's time is
scaled by ``REFERENCE_S`` over the median loop time of the pass: it is
given in seconds at the host speed at which the loop takes ``REFERENCE_S``.
Set-up times are scaled the same way by samples taken between them.
"""

from __future__ import annotations

import contextlib
import signal
import time
from statistics import median

REFERENCE_S = 0.05   # loop time on the host the benchmark was defined on
PERIOD_S = 0.5
MIN_SAMPLES = 5

_N = 256
_ADJ = tuple(((v + 1) % _N, (v + 7) % _N, (v - 1) % _N) for v in range(_N))


def loop_seconds(rounds: int = 25_000) -> float:
    """Time of a least-recently-visited walk on a fixed circulant graph."""
    start = time.perf_counter()
    last = [-1] * _N
    pos, x = 0, 12345
    for t in range(rounds):
        nbrs = _ADJ[pos]
        best = min(last[w] for w in nbrs)
        tied = [w for w in nbrs if last[w] == best]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        pos = tied[x % len(tied)]
        last[pos] = t
    return time.perf_counter() - start


class Stopwatch:
    seconds = 0.0


def timed_section(excluded=lambda: 0.0):
    """Context manager yielding a Stopwatch whose ``seconds`` is the time
    of the block minus the growth of ``excluded()`` during it."""

    @contextlib.contextmanager
    def section():
        watch = Stopwatch()
        before = excluded()
        start = time.perf_counter()
        try:
            yield watch
        finally:
            watch.seconds = (time.perf_counter() - start
                             - (excluded() - before))

    return section()


class SpeedMeter:
    """The meter of an untraced pass: records no spans, samples the host's
    speed in the background, and keeps that sampling out of timed
    sections."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    def timed(self):
        return timed_section(lambda: self.spent)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample every PERIOD_S inside the block, and at least MIN_SAMPLES
        times in all."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(loop_seconds())

    def scale(self) -> float:
        """Factor from this pass's host seconds to reference seconds."""
        return REFERENCE_S / median(self.samples)
