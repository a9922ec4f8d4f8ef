"""Refresh-time and frequency analytics over traces, plus growth fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .engine import Trace
from .graph import Graph


@dataclass(frozen=True)
class RefreshSeries:
    round_max: tuple[int, ...]        # index t in 0..horizon
    vertex_peak: tuple[int, ...]      # per-vertex max gap between visits
    coverage_time: int | None         # first round with all vertices visited


@dataclass(frozen=True)
class GrowthFit:
    model: str                        # "power" | "geometric"
    params: tuple[float, ...]
    values: tuple[float, ...]
    exponent: float | None            # power model: value ~ param**exponent
    ratio: float | None               # geometric model: value ~ ratio**param


def visit_times(trace: Trace) -> list[list[int]]:
    """Per-vertex sorted list of visit rounds (marks and move arrivals)."""
    visits: list[list[int]] = [[] for _ in range(trace.graph.n)]
    for round_, _, vertex in trace.marks:
        visits[vertex].append(round_)
    for round_, _, _, _, to in trace.events:
        visits[to].append(round_)
    for lst in visits:
        lst.sort()
    return visits


def vertex_peak_refresh(trace: Trace, after: int = 0) -> list[int]:
    """Max refresh gap per vertex, counting only gaps that end after
    round ``after`` (gaps are measured from round 0 for the first visit and
    include the trailing gap up to the horizon).  A vertex never visited
    has one gap spanning the whole run."""
    horizon = trace.horizon
    peaks = []
    for times in visit_times(trace):
        prev = 0
        peak = 0
        for t in times:
            if t > after:
                peak = max(peak, t - prev)
            prev = t
        if horizon > after:
            peak = max(peak, horizon - prev)
        peaks.append(peak)
    return peaks


def coverage_time(trace: Trace) -> int | None:
    times = visit_times(trace)
    if any(not t for t in times):
        return None
    return max(t[0] for t in times)


def refresh_series(trace: Trace) -> RefreshSeries:
    horizon = trace.horizon
    n = trace.graph.n
    # visits grouped by round
    by_round: list[list[int]] = [[] for _ in range(horizon + 1)]
    for round_, _, vertex in trace.marks:
        by_round[round_].append(vertex)
    for round_, _, _, _, to in trace.events:
        by_round[round_].append(to)

    last = np.zeros(n, dtype=np.int64)  # unvisited vertices refresh from 0
    round_max = []
    for t in range(horizon + 1):
        for v in by_round[t]:
            last[v] = t
        round_max.append(int(t - last.min()) if n else 0)
    return RefreshSeries(round_max=tuple(round_max),
                         vertex_peak=tuple(vertex_peak_refresh(trace)),
                         coverage_time=coverage_time(trace))


def frequency_histogram(trace: Trace) -> tuple[list[int], list[int]]:
    """Final per-vertex visit counts and per-edge traversal counts."""
    return list(trace.vertex_visit_counts), list(trace.edge_traversal_counts)


def metrics_csv(trace: Trace) -> str:
    """Per-round series: round, max refresh, fraction of vertices visited."""
    series = refresh_series(trace)
    times = visit_times(trace)
    firsts = sorted(t[0] for t in times if t)
    n = trace.graph.n
    lines = ["round,max_refresh,coverage_fraction"]
    covered = 0
    idx = 0
    for t, mr in enumerate(series.round_max):
        while idx < len(firsts) and firsts[idx] <= t:
            covered += 1
            idx += 1
        frac = covered / n if n else 1.0
        lines.append(f"{t},{mr},{frac:.6f}")
    return "\n".join(lines) + "\n"


def baseline_lower_bound(g: Graph, robots: int,
                         cycle_length: int | None = None) -> Fraction:
    """|H(G)| / r, the disjoint-patrol-cycles lower bound on max refresh.

    ``cycle_length`` is the Hamiltonian cycle length (normally n, supplied
    by the brute-force search or the caller).  When no Hamiltonian cycle
    exists, callers may substitute n as a documented proxy.
    """
    if robots < 1:
        raise ValueError("robots must be >= 1")
    if cycle_length is None:
        cycle_length = g.n
    return Fraction(cycle_length, robots)


def fit_growth(points: Sequence[tuple[float, float]], model: str) -> GrowthFit:
    """Least-squares fit in log space over (param, value) points.

    power:     log value = a + exponent * log param
    geometric: log value = a + log(ratio) * param
    """
    if model not in ("power", "geometric"):
        raise ValueError(f"unknown model {model!r}")
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit")
    params = np.array([p for p, _ in points], dtype=float)
    values = np.array([v for _, v in points], dtype=float)
    if np.any(values <= 0) or (model == "power" and np.any(params <= 0)):
        raise ValueError("fit requires positive values")
    x = np.log(params) if model == "power" else params
    slope, _ = np.polyfit(x, np.log(values), 1)
    return GrowthFit(model=model,
                     params=tuple(params),
                     values=tuple(values),
                     exponent=float(slope) if model == "power" else None,
                     ratio=float(math.exp(slope)) if model == "geometric" else None)
