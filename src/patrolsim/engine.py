"""Synchronous-round multi-robot simulation producing a deterministic trace."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import Graph
from .policies import (IsolatedVertexError, PolicyKind, ScriptUnusedError,
                       TieBreakSpec, decision_keys, tied_entries)


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
        lines = ["round,robot,from,edge,to"]
        lines.extend(f"{r},{b},{u},{e},{v}" for r, b, u, e, v in self.events)
        return "\n".join(lines) + "\n"

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
    of robot ``i``."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.graph = g = config.graph
        self.round = 0
        self.vlast = [-1] * g.n
        self.vcnt = [0] * g.n
        self.elast = [-1] * g.m
        self.ecnt = [0] * g.m
        self.robots: list[int] = []
        self.events: list[Event] = []
        self.marks: list[Mark] = []
        self.tiebreak = config.tiebreak.make(default_seed=config.seed)
        self.keys, self.slot = decision_keys(
            config.policy, g.n, self.vlast, self.vcnt, self.elast, self.ecnt)
        self._pending = sorted(
            ((r, i, v) for i, (r, v) in enumerate(config.arrivals)),
            key=lambda t: (t[0], t[1]))

    def _add_robot(self, vertex: int, round_: int) -> None:
        self.marks.append((round_, len(self.robots), vertex))
        self.robots.append(vertex)
        self.vlast[vertex] = round_
        self.vcnt[vertex] += 1

    def _activate_arrivals(self) -> None:
        while self._pending and self._pending[0][0] <= self.round:
            _, _, vertex = self._pending.pop(0)
            self._add_robot(vertex, self.round)


def init(config: SimConfig) -> SimState:
    """Round 0: place the initial robots and mark their start vertices."""
    state = SimState(config)
    for v in config.starts:
        state._add_robot(v, 0)
    state._activate_arrivals()  # arrivals scheduled for round 0
    return state


def step(state: SimState, rounds: int = 1) -> SimState:
    """Advance ``rounds`` synchronous rounds.

    Robots act in ascending id order and read live state, so a later robot
    sees the visits committed by earlier robots in the same round.  Robots
    arriving in a round are placed (their start vertex marked) before
    anyone moves, then move like everyone else.  A robot with a single
    candidate moves without consulting the tie-break, so singleton sets
    consume no script entry or randomness.  ``step(state, k)`` equals
    ``k`` calls of ``step(state)``; negative ``rounds`` or a step past the
    horizon raises ``ValueError`` before any round is played.
    """
    left = state.config.horizon - state.round
    if not 0 <= rounds <= left:
        raise ValueError(f"{rounds} rounds asked, {left} left to the horizon")
    adj, keys, slot = state.graph.adj, state.keys, state.slot
    vlast, vcnt, elast, ecnt = state.vlast, state.vcnt, state.elast, state.ecnt
    robots, events, pending = state.robots, state.events, state._pending
    choose = state.tiebreak.choose
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
            events.append((t, rid, pos, via, to))
            robots[rid] = to
            vlast[to] = t
            vcnt[to] += 1
            elast[via] = t
            ecnt[via] += 1
    return state


def run(config: SimConfig) -> Trace:
    """``init`` plus a step of ``horizon`` rounds.  A SCRIPTED tie-break
    must be read to its end: entries left over raise ``ScriptUnusedError``."""
    state = step(init(config), config.horizon)
    if state.tiebreak.unread:
        raise ScriptUnusedError(
            f"{state.tiebreak.unread} script choices left unread at the "
            "horizon")
    return Trace(config=config,
                 events=tuple(state.events),
                 marks=tuple(state.marks),
                 vertex_visit_counts=tuple(state.vcnt),
                 edge_traversal_counts=tuple(state.ecnt))
