"""Refresh-time analytics over runs, kept online or replayed from a trace,
plus growth fits."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .engine import Trace


@dataclass(frozen=True)
class RefreshSeries:
    round_max: tuple[int, ...]        # index t in 0..horizon
    covered: tuple[int, ...]          # vertices visited by round t
    vertex_peak: tuple[int, ...]      # per-vertex max gap between visits
    coverage_time: int | None         # first round with all vertices visited


class RefreshMeter:
    """Every refresh metric of one run, kept online as its visits are fed in.

    ``round_max[t]`` is the age of the stalest vertex after round t, where
    an unvisited vertex refreshes from round 0, and ``covered[t]`` counts
    the vertices visited by then.  A vertex's peak is its longest gap
    between visits, counting only gaps that end after round ``after``: the
    first gap runs from round 0 and the trailing one to the last round
    closed, so a vertex never visited has one gap spanning the run.

    ``at[r]`` counts the vertices last visited in round r.  Last visits
    only grow, so the oldest round with a nonzero count only moves forward,
    and a run costs O(n + rounds + visits) time and holds O(n + rounds)
    ints, however many robots move.
    """

    CLOSE = -1  # fed in place of a vertex, ends the open round

    def __init__(self, n: int, after: int = 0):
        self.n, self.after = n, after
        self.last = [0] * n
        self.seen = [False] * n
        self.peak = [0] * n
        self.at = [n]
        self.t = self.oldest = self.visited = 0   # t: the open round
        self.round_max: list[int] = []
        self.covered: list[int] = []

    def feed(self, visits: Iterable[int]) -> None:
        """Feed the vertices visited in the open round, in any order, and
        ``CLOSE`` to end it and open the next.  A run's visits may be fed
        in as many calls as the feeder likes."""
        last, seen, peak, at = self.last, self.seen, self.peak, self.at
        after, round_max, covered = self.after, self.round_max, self.covered
        t, oldest, visited = self.t, self.oldest, self.visited
        for v in visits:
            if v < 0:  # round t is complete
                while not at[oldest]:
                    oldest += 1
                round_max.append(t - oldest)
                covered.append(visited)
                at.append(0)
                t += 1
                continue
            lv = last[v]
            if t - lv > peak[v] and t > after:
                peak[v] = t - lv
            at[lv] -= 1
            at[t] += 1
            last[v] = t
            if not seen[v]:
                seen[v] = True
                visited += 1
        self.t, self.oldest, self.visited = t, oldest, visited

    def series(self) -> RefreshSeries:
        """The metrics of the rounds closed so far."""
        horizon = self.t - 1
        peak = self.peak
        if horizon > self.after:
            peak = [max(p, horizon - lv) for p, lv in zip(peak, self.last)]
        first = bisect_left(self.covered, self.n)
        return RefreshSeries(round_max=tuple(self.round_max),
                             covered=tuple(self.covered),
                             vertex_peak=tuple(peak),
                             coverage_time=first if first <= horizon else None)


def refresh_series(trace: Trace, after: int = 0) -> RefreshSeries:
    """Every refresh metric of ``trace``: its run replayed a chunk at a
    time into a ``RefreshMeter``."""
    from .engine import meter_sink  # engine imports this module
    meter = RefreshMeter(trace.graph.n, after)
    trace.replay(meter_sink(meter, trace.graph))
    return meter.series()


def vertex_peak_refresh(trace: Trace, after: int = 0) -> list[int]:
    """``refresh_series(trace, after).vertex_peak`` as a list."""
    return list(refresh_series(trace, after).vertex_peak)


def coverage_time(trace: Trace) -> int | None:
    """The first round by which every vertex was visited, else None."""
    return refresh_series(trace).coverage_time


METRICS_HEADER = "round,max_refresh,coverage_fraction\n"


def coverage_fractions(n: int) -> list[str]:
    """The coverage fraction's text for each count 0..n of vertices
    visited, so a row formats no float."""
    return [f"{c / n:.6f}\n" for c in range(n + 1)]


def metrics_rows(first: int, round_max: Iterable[int],
                 covered: Iterable[int], fractions: Sequence[str]) -> str:
    """The ``metrics.csv`` rows of rounds ``first``, ``first + 1``, ...: one
    ``%`` format a row, the fraction's text looked up in ``fractions``."""
    return "".join(map("%d,%d,%s".__mod__, zip(
        count(first), round_max, map(fractions.__getitem__, covered))))


def metrics_csv(series: RefreshSeries) -> str:
    """Per-round series: round, max refresh, fraction of vertices visited."""
    return METRICS_HEADER + metrics_rows(
        0, series.round_max, series.covered,
        coverage_fractions(len(series.vertex_peak)))


def fit_growth(points: Sequence[tuple[float, float]], model: str) -> float:
    """The exponent (power) or ratio (geometric) of the least-squares line
    through (x, log value) points.

    power:     log value = a + exponent * log param
    geometric: log value = a + log(ratio) * param
    """
    if model not in ("power", "geometric"):
        raise ValueError(f"unknown model {model!r}")
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit")
    params = tuple(float(p) for p, _ in points)
    values = tuple(float(v) for _, v in points)
    if any(v <= 0 for v in values) or (model == "power"
                                       and any(p <= 0 for p in params)):
        raise ValueError("fit requires positive values")
    xs = [math.log(p) for p in params] if model == "power" else params
    if min(xs) == max(xs):
        raise ValueError("fit requires at least two distinct params")
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return slope if model == "power" else math.exp(slope)
