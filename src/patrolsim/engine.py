"""Synchronous-round multi-robot simulation producing a deterministic trace."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import chain, cycle
from operator import getitem

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
    config: SimConfig
    events: tuple[Event, ...]
    marks: tuple[Mark, ...]
    vertex_visit_counts: tuple[int, ...]
    edge_traversal_counts: tuple[int, ...]

    @property
    def graph(self) -> Graph:
        return self.config.graph

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def events_csv(self) -> str:
        self.write_events_csv(out := io.StringIO())
        return out.getvalue()

    def write_events_csv(self, file) -> None:
        """Write ``events_csv()`` to ``file`` EVENTS_CHUNK events at a time.
        Each field's text is looked up by value: ``"i,"`` by id, ``"v\\n"``
        by to vertex and ``"t,"`` in a dict of the chunk's rounds."""
        file.write("round,robot,from,edge,to\n")
        g, events = self.graph, self.events
        robots = len(self.config.starts) + len(self.config.arrivals)
        ids = [f"{i}," for i in range(max(g.n, g.m, robots))]
        ends = [f"{v}\n" for v in range(g.n)]
        for i in range(0, len(events), EVENTS_CHUNK):
            chunk = events[i:i + EVENTS_CHUNK]
            first, last = chunk[0][0], chunk[-1][0]
            rounds = {t: f"{t}," for t in range(first, last + 1)}
            tables = cycle((rounds, ids, ids, ids, ends))
            file.write("".join(map(getitem, tables,
                                   chain.from_iterable(chunk))))

    def summary_json(self) -> str:
        payload = {
            "policy": self.config.policy.value,
            "tiebreak": self.config.tiebreak.kind,
            "seed": self.config.seed,
            "horizon": self.horizon,
            "n": self.graph.n,
            "m": self.graph.m,
            "robots": len(self.config.starts) + len(self.config.arrivals),
            "events": len(self.events),
            "vertex_visit_counts": list(self.vertex_visit_counts),
            "edge_traversal_counts": list(self.edge_traversal_counts),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class SimState:
    """Mutable state of one run, as flat lists indexed by vertex or edge
    id: ``vlast``/``elast`` hold the last visit/traversal round (-1 for
    never) and ``vcnt``/``ecnt`` the counts.  ``robots[i]`` is the position
    of robot ``i``.  ``events`` and ``marks`` are None when the run does
    not record them.  A ``meter``, when given, is fed every visit: the
    visits gather in ``visits``, as the meter's stream, until ``step``
    returns or FEED_BATCH of them are held."""

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
        self.events: list[Event] | None = [] if record else None
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

    With ``record`` false the run keeps no events or marks; a ``meter`` is
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
    adj, keys, slot = state.graph.adj, state.keys, state.slot
    vlast, vcnt, elast, ecnt = state.vlast, state.vcnt, state.elast, state.ecnt
    robots, events, pending = state.robots, state.events, state._pending
    choose, visits = state.tiebreak.choose, state.visits
    for t in range(state.round + 1, state.round + rounds + 1):
        state.round = t
        if pending and pending[0][0] <= t:
            state._activate_arrivals()
        for rid, pos in enumerate(robots):
            tied = tied_entries(adj[pos], keys, slot)
            if len(tied) == 1:
                to, via = tied[0]
            elif tied:
                to, via = tied[choose(len(tied))]
            else:
                raise IsolatedVertexError(f"vertex {pos} has no neighbors")
            if events is not None:
                events.append((t, rid, pos, via, to))
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
    """``init`` plus a step of ``horizon`` rounds, every event and mark
    recorded."""
    state = finish(step(init(config), config.horizon))
    return Trace(config=config,
                 events=tuple(state.events),
                 marks=tuple(state.marks),
                 vertex_visit_counts=tuple(state.vcnt),
                 edge_traversal_counts=tuple(state.ecnt))


def run_series(config: SimConfig, after: int = 0) -> RefreshSeries:
    """``refresh_series(run(config), after)`` from a run that records no
    events or marks: the metrics are kept as it steps."""
    meter = RefreshMeter(config.graph.n, after)
    finish(step(init(config, record=False, meter=meter), config.horizon))
    return meter.series()
