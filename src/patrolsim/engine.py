"""Synchronous-round multi-robot simulation producing a deterministic trace."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from collections import Counter
from itertools import chain, cycle, repeat
from typing import Iterator

from .graph import Graph
from .metrics import RefreshMeter, RefreshSeries
from .policies import (IsolatedVertexError, PolicyKind, ScriptUnusedError,
                       TieBreakSpec, decision_keys, tied_entries)

CLOSE = RefreshMeter.CLOSE
FEED_BATCH = 4096  # visits a metered run holds before feeding its meter


@dataclass(frozen=True)
class SimConfig:
    graph: Graph
    policy: PolicyKind
    starts: tuple[int, ...]
    horizon: int
    tiebreak: TieBreakSpec = TieBreakSpec.lowest_id()
    seed: int = 0
    arrivals: tuple[tuple[int, int], ...] = ()  # (round, start vertex)

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not self.starts and not self.arrivals:
            raise ValueError("at least one robot required")
        for v in self.starts:
            if not (0 <= v < self.graph.n):
                raise ValueError(f"start vertex {v} out of range")
        for r, v in self.arrivals:
            if not (0 <= v < self.graph.n):
                raise ValueError(f"arrival vertex {v} out of range")
            if not (0 <= r <= self.horizon):
                raise ValueError(f"arrival round {r} outside 0..horizon")


# Trace event: (round, robot, from_vertex, edge, to_vertex)
Event = tuple[int, int, int, int, int]
# Visit marking that is not a move: (round, robot, vertex)
Mark = tuple[int, int, int]

EVENTS_CHUNK = 8192  # events formatted per write by Trace.write_events_csv


@dataclass
class Trace:
    """A recorded run.  ``moves`` holds one arc id of ``graph.arcs`` per
    move, in the order they were made: round by round, and within a round
    by ascending robot id.  Every robot placed moves once a round, so the
    round and robot of a move follow from its position and the marks."""

    config: SimConfig
    moves: tuple[int, ...]
    marks: tuple[Mark, ...]
    vertex_visit_counts: tuple[int, ...]
    edge_traversal_counts: tuple[int, ...]

    @property
    def graph(self) -> Graph:
        return self.config.graph

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def round_spans(self) -> Iterator[tuple[int, int, int]]:
        """``(first round, last round, robots)`` for the spans of rounds
        1..horizon between arrivals: in each round of a span, robots
        ``0..robots-1`` move once each.  A span whose robots have not
        arrived yet has ``robots == 0``."""
        arrivals = Counter(t for t, _, _ in self.marks)
        robots, first = arrivals.pop(0, 0), 1
        for t in sorted(arrivals) + [self.horizon + 1]:
            if first < t:
                yield first, t - 1, robots
            robots += arrivals[t]
            first = t

    @property
    def events(self) -> tuple[Event, ...]:
        """Every move as ``(round, robot, from, edge, to)``, built from
        ``moves`` on each read."""
        arcs, moves = self.graph.arcs, iter(self.moves)
        return tuple((t, rid, *arcs[a])
                     for first, last, robots in self.round_spans()
                     for t in range(first, last + 1)
                     for rid, a in zip(range(robots), moves))

    def events_csv(self) -> str:
        self.write_events_csv(out := io.StringIO())
        return out.getvalue()

    def write_events_csv(self, file) -> None:
        """Write ``events_csv()`` to ``file`` in whole rounds, about
        EVENTS_CHUNK events a write.  A row joins three texts looked up
        by value: ``"t,"``, ``"rid,"`` by robot id and ``"from,edge,to\n"``
        by arc id."""
        file.write("round,robot,from,edge,to\n")
        moves = self.moves
        arc_text = [f"{u},{e},{w}\n" for u, e, w in self.graph.arcs]
        done = 0
        for first, last, robots in self.round_spans():
            if not robots:
                continue
            rids = [f"{i}," for i in range(robots)]
            per = max(1, EVENTS_CHUNK // robots)  # rounds a write
            for lo in range(first, last + 1, per):
                hi = min(lo + per, last + 1)
                chunk = moves[done:done + robots * (hi - lo)]
                done += len(chunk)
                rounds = chain.from_iterable(
                    repeat(f"{t},", robots) for t in range(lo, hi))
                file.write("".join(chain.from_iterable(zip(
                    rounds, cycle(rids), map(arc_text.__getitem__, chunk)))))

    def summary_json(self) -> str:
        payload = {
            "policy": self.config.policy.value,
            "tiebreak": self.config.tiebreak.kind,
            "seed": self.config.seed,
            "horizon": self.horizon,
            "n": self.graph.n,
            "m": self.graph.m,
            "robots": len(self.config.starts) + len(self.config.arrivals),
            "events": len(self.moves),
            "vertex_visit_counts": list(self.vertex_visit_counts),
            "edge_traversal_counts": list(self.edge_traversal_counts),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class SimState:
    """Mutable state of one run, as flat lists indexed by vertex or edge
    id: ``vlast``/``elast`` hold the last visit/traversal round (-1 for
    never) and ``vcnt``/``ecnt`` the counts.  ``robots[i]`` is the position
    of robot ``i``.  ``moves`` (arc ids, see ``Trace``) and ``marks`` are
    None when the run does not record them.  A ``meter``, when given, is
    fed every visit: the visits gather in ``visits``, as the meter's
    stream, until ``step`` returns or FEED_BATCH of them are held."""

    def __init__(self, config: SimConfig, record: bool = True,
                 meter: RefreshMeter | None = None):
        self.config = config
        self.graph = g = config.graph
        self.round = 0
        self.vlast = [-1] * g.n
        self.vcnt = [0] * g.n
        self.elast = [-1] * g.m
        self.ecnt = [0] * g.m
        self.robots: list[int] = []
        self.moves: list[int] | None = [] if record else None
        self.marks: list[Mark] | None = [] if record else None
        self.meter = meter
        self.visits: list[int] | None = None if meter is None else []
        self.tiebreak = config.tiebreak.make(default_seed=config.seed)
        self.keys, self.slot = decision_keys(
            config.policy, g.n, self.vlast, self.vcnt, self.elast, self.ecnt)
        self._pending = sorted(
            ((r, i, v) for i, (r, v) in enumerate(config.arrivals)),
            key=lambda t: (t[0], t[1]))

    def _add_robot(self, vertex: int, round_: int) -> None:
        if self.marks is not None:
            self.marks.append((round_, len(self.robots), vertex))
        if self.visits is not None:
            self.visits.append(vertex)
        self.robots.append(vertex)
        self.vlast[vertex] = round_
        self.vcnt[vertex] += 1

    def _activate_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self.round:
            _, _, vertex = self._pending.pop(0)
            self._add_robot(vertex, self.round)


def init(config: SimConfig, record: bool = True,
         meter: RefreshMeter | None = None) -> SimState:
    """Round 0: place the initial robots and mark their start vertices.

    With ``record`` false the run keeps no moves or marks; a ``meter`` is
    fed every visit, these marks included."""
    state = SimState(config, record, meter)
    for v in config.starts:
        state._add_robot(v, 0)
    state._activate_arrivals()  # arrivals scheduled for round 0
    if state.visits is not None:
        state.visits.append(CLOSE)
    return state


def step(state: SimState, rounds: int = 1) -> SimState:
    """Advance ``rounds`` synchronous rounds.

    Robots act in ascending id order and read live state, so a later robot
    sees the visits committed by earlier robots in the same round.  Robots
    arriving in a round are placed (their start vertex marked) before
    anyone moves, then move like everyone else.  A robot with a single
    candidate moves without consulting the tie-break, so singleton sets
    consume no script entry or randomness.  A metered run adds each
    round's arrivals, its moves and ``CLOSE`` to the meter's stream, and
    the stream is fed by the time ``step`` returns.  ``step(state, k)``
    equals ``k`` calls of ``step(state)``; negative ``rounds`` or a step
    past the horizon raises ``ValueError`` before any round is played.
    """
    left = state.config.horizon - state.round
    if not 0 <= rounds <= left:
        raise ValueError(f"{rounds} rounds asked, {left} left to the horizon")
    out, keys, slot = state.graph.out, state.keys, state.slot
    vlast, vcnt, elast, ecnt = state.vlast, state.vcnt, state.elast, state.ecnt
    robots, moves, pending = state.robots, state.moves, state._pending
    choose, visits = state.tiebreak.choose, state.visits
    for t in range(state.round + 1, state.round + rounds + 1):
        state.round = t
        if pending and pending[0][0] <= t:
            state._activate_arrivals()
        for rid, pos in enumerate(robots):
            tied = tied_entries(out[pos], keys, slot)
            if len(tied) == 1:
                to, via, arc = tied[0]
            elif tied:
                to, via, arc = tied[choose(len(tied))]
            else:
                raise IsolatedVertexError(f"vertex {pos} has no neighbors")
            if moves is not None:
                moves.append(arc)
            robots[rid] = to
            vlast[to] = t
            vcnt[to] += 1
            elast[via] = t
            ecnt[via] += 1
        if visits is not None:
            visits += robots
            visits.append(CLOSE)
            if len(visits) >= FEED_BATCH:
                state.meter.feed(visits)
                visits.clear()
    if visits:
        state.meter.feed(visits)
        visits.clear()
    return state


def finish(state: SimState) -> SimState:
    """The check a run to the horizon ends with: a SCRIPTED tie-break must
    be read to its end, and entries left over raise ``ScriptUnusedError``."""
    if state.tiebreak.unread:
        raise ScriptUnusedError(
            f"{state.tiebreak.unread} script choices left unread at the "
            "horizon")
    return state


def run(config: SimConfig) -> Trace:
    """``init`` plus a step of ``horizon`` rounds, every move and mark
    recorded."""
    state = finish(step(init(config), config.horizon))
    return Trace(config=config,
                 moves=tuple(state.moves),
                 marks=tuple(state.marks),
                 vertex_visit_counts=tuple(state.vcnt),
                 edge_traversal_counts=tuple(state.ecnt))


def run_series(config: SimConfig, after: int = 0) -> RefreshSeries:
    """``refresh_series(run(config), after)`` from a run that records no
    moves or marks: the metrics are kept as it steps."""
    meter = RefreshMeter(config.graph.n, after)
    finish(step(init(config, record=False, meter=meter), config.horizon))
    return meter.series()
