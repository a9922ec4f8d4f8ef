"""Refresh-time analytics over traces, plus growth fits."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .engine import Trace


@dataclass(frozen=True)
class RefreshSeries:
    round_max: tuple[int, ...]        # index t in 0..horizon
    covered: tuple[int, ...]          # vertices visited by round t
    vertex_peak: tuple[int, ...]      # per-vertex max gap between visits
    coverage_time: int | None         # first round with all vertices visited


@dataclass(frozen=True)
class GrowthFit:
    model: str                        # "power" | "geometric"
    params: tuple[float, ...]
    values: tuple[float, ...]
    exponent: float | None            # power model: value ~ param**exponent
    ratio: float | None               # geometric model: value ~ ratio**param


def _visits(trace: Trace):
    """``(round, vertex)`` for every visit in round order, a round's arrival
    marks before its moves, then ``(horizon + 1, -1)`` to close the last
    round."""
    end = (trace.horizon + 1, -1, -1)
    marks = iter(trace.marks)
    mark = next(marks, end)
    for t, _, _, _, v in trace.events:
        while mark[0] <= t:
            yield mark[0], mark[2]
            mark = next(marks, end)
        yield t, v
    while mark is not end:
        yield mark[0], mark[2]
        mark = next(marks, end)
    yield end[0], end[2]


def refresh_series(trace: Trace, after: int = 0) -> RefreshSeries:
    """Every refresh metric of ``trace`` from one pass over its visits.

    ``round_max[t]`` is the age of the stalest vertex after round t, where
    an unvisited vertex refreshes from round 0, and ``covered[t]`` counts
    the vertices visited by then.  ``vertex_peak`` is each vertex's longest
    gap between visits, counting only gaps that end after round ``after``:
    the first gap runs from round 0 and the trailing one to the horizon,
    so a vertex never visited has one gap spanning the run.

    ``at[r]`` counts the vertices last visited in round r.  Last visits
    only grow, so the oldest round with a nonzero count only moves forward
    and the pass is O(n + horizon + visits).
    """
    n, horizon = trace.graph.n, trace.horizon
    last = [0] * n
    peak = [0] * n
    seen = [False] * n
    at = [0] * (horizon + 1)
    at[0] = n
    t = oldest = covered = 0
    round_max, covered_by = [], []
    for r, v in _visits(trace):
        while t < r:  # round t is complete
            while not at[oldest]:
                oldest += 1
            round_max.append(t - oldest)
            covered_by.append(covered)
            t += 1
        if v < 0:
            break
        lv = last[v]
        if r - lv > peak[v] and r > after:
            peak[v] = r - lv
        at[lv] -= 1
        at[r] += 1
        last[v] = r
        if not seen[v]:
            seen[v] = True
            covered += 1
    if horizon > after:
        peak = [max(p, horizon - lv) for p, lv in zip(peak, last)]
    first = bisect_left(covered_by, n)
    return RefreshSeries(round_max=tuple(round_max),
                         covered=tuple(covered_by),
                         vertex_peak=tuple(peak),
                         coverage_time=first if first <= horizon else None)


def vertex_peak_refresh(trace: Trace, after: int = 0) -> list[int]:
    """``refresh_series(trace, after).vertex_peak`` as a list."""
    return list(refresh_series(trace, after).vertex_peak)


def coverage_time(trace: Trace) -> int | None:
    """The first round by which every vertex was visited, else None."""
    return refresh_series(trace).coverage_time


def metrics_csv(series: RefreshSeries) -> str:
    """Per-round series: round, max refresh, fraction of vertices visited."""
    n = len(series.vertex_peak)
    lines = ["round,max_refresh,coverage_fraction"]
    lines.extend(f"{t},{mr},{c / n:.6f}" for t, (mr, c)
                 in enumerate(zip(series.round_max, series.covered)))
    return "\n".join(lines) + "\n"


def fit_growth(points: Sequence[tuple[float, float]], model: str) -> GrowthFit:
    """Least-squares line through (x, log value) points.

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
    return GrowthFit(model=model, params=params, values=values,
                     exponent=slope if model == "power" else None,
                     ratio=math.exp(slope) if model == "geometric" else None)
