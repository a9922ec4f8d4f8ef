"""Synchronous-round multi-robot simulation producing a deterministic trace."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator, Sequence

from .graph import Graph
from .metrics import (METRICS_HEADER, RefreshMeter, RefreshSeries,
                      coverage_fractions, metrics_rows)
from .policies import (IsolatedVertexError, PolicyKind, ScriptUnusedError,
                       TieBreakSpec, decision_keys, tied_entries)


@dataclass(frozen=True)
class SimConfig:
    graph: Graph
    policy: PolicyKind
    starts: tuple[int, ...]
    horizon: int
    tiebreak: TieBreakSpec = TieBreakSpec.lowest_id()
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

EVENTS_CHUNK = 8192  # moves in a chunk of rounds, see _chunks
# A chunk of rounds: (first round, last round, robots, vertices placed)
Chunk = tuple[int, int, int, list[int]]
# Takes each chunk of a run and its moves' arc ids, see _walk
Sink = Callable[[Chunk, Sequence[int]], None]
EVENTS_HEADER = "round,robot,from,edge,to\n"


def _placements(config: SimConfig) -> dict[int, list[int]]:
    """The one placement order, ``{round: [vertex, ...]}``: the starts,
    then the arrivals in config order.  A robot's id is its place in it."""
    placed = {0: list(config.starts)}
    for t, v in config.arrivals:
        placed.setdefault(t, []).append(v)
    return placed


def _chunks(config: SimConfig) -> Iterator[Chunk]:
    """Round 0, then rounds 1..horizon cut into chunks of whole rounds.

    In each round of a chunk robots ``0..robots-1`` move once each, in
    that order.  Robots are placed only in a chunk's first round, on the
    vertices the chunk lists.  A chunk has about EVENTS_CHUNK moves, and
    rounds with no robot yet are one chunk.  Round 0, where robots are
    placed and none moves, is ``(0, 0, 0, placed)``."""
    arrivals = _placements(config)
    placed = arrivals.pop(0)
    yield 0, 0, 0, placed
    robots, first, placed = len(placed), 1, []
    for t in sorted(arrivals) + [config.horizon + 1]:
        per = max(1, EVENTS_CHUNK // robots if robots else t - first)
        for lo in range(first, t, per):
            yield lo, min(lo + per, t) - 1, robots, placed
            placed = []
        placed = arrivals.get(t, [])
        robots, first = robots + len(placed), t


def _columns(chunk: Chunk, moves: Iterator[int],
             table: Sequence) -> list[list]:
    """``chunk``'s moves, read from the arc ids ``moves`` and looked up in
    ``table``, as one column per robot: its entries round by round."""
    first, last, robots, _ = chunk
    moved = [table[a] for a in islice(moves, robots * (last - first + 1))]
    return [moved[rid::robots] for rid in range(robots)]


def _interleave(columns: list, rounds: int) -> list:
    """Round after round, that round's entry of each of ``columns``,
    filled one slice a column: no Python step runs per entry."""
    laid = [None] * (len(columns) * rounds)
    for i, column in enumerate(columns):
        laid[i::len(columns)] = column
    return laid


def _visits(chunk: Chunk, moves: Iterator[int],
            heads: Sequence[int]) -> Iterator[int]:
    """``chunk`` as a ``RefreshMeter`` stream: the vertices placed in its
    first round, then each round's move ``heads`` (by arc id) and CLOSE."""
    rounds = chunk[1] - chunk[0] + 1
    return chain(chunk[3], _interleave(
        [*_columns(chunk, moves, heads), [RefreshMeter.CLOSE] * rounds],
        rounds))


def _arc_texts(graph: Graph) -> list[str]:
    """Each arc's ``events.csv`` text, ``"from,edge,to\n"``, by arc id."""
    return [f"{u},{e},{w}\n" for u, e, w in graph.arcs]


def _events_text(chunk: Chunk, moves: Iterator[int],
                 arc_text: Sequence[str]) -> str:
    """``chunk``'s ``events.csv`` rows, read from the arc ids ``moves``.  A
    row is three texts: ``"t,"``, ``"rid,"`` and the arc's text, laid out
    by ``_interleave``."""
    first, last, *_ = chunk
    rounds = last - first + 1
    round_text = list(map("{},".format, range(first, last + 1)))
    return "".join(_interleave([
        text for rid, arcs in enumerate(_columns(chunk, moves, arc_text))
        for text in (round_text, [f"{rid},"] * rounds, arcs)], rounds))


@dataclass
class Trace:
    """A recorded run.  ``moves``, an ``array('i')``, holds one arc id of
    ``graph.arcs`` per move, in the order they were made: round by round,
    and within a round by ascending robot id.  Every robot placed moves
    once a round, so the round and robot of a move follow from its position
    and the placements."""

    config: SimConfig
    moves: Sequence[int]
    vertex_visit_counts: tuple[int, ...]
    edge_traversal_counts: tuple[int, ...]

    @property
    def graph(self) -> Graph:
        return self.config.graph

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def marks(self) -> tuple[tuple[int, int, int], ...]:
        """Each placement, a visit that is not a move, as ``(round, robot,
        vertex)``: derived from the config, not recorded."""
        placed = _placements(self.config)
        return tuple((t, rid, v) for rid, (t, v) in enumerate(
            (t, v) for t in sorted(placed) for v in placed[t]))

    @property
    def events(self) -> tuple[Event, ...]:
        """Every move as ``(round, robot, from, edge, to)``, built from
        ``moves`` on each read."""
        arcs, moves = self.graph.arcs, iter(self.moves)
        return tuple((t, rid, *arc) for chunk in _chunks(self.config)
                     for t, *row in zip(range(chunk[0], chunk[1] + 1),
                                        *_columns(chunk, moves, arcs))
                     for rid, arc in enumerate(row))

    def visits(self) -> Iterator[int]:
        """The run as a ``RefreshMeter`` stream: for each round 0..horizon,
        the vertices placed in it, its moves' heads, then ``CLOSE``."""
        heads, moves = [w for _, _, w in self.graph.arcs], iter(self.moves)
        return chain.from_iterable(_visits(chunk, moves, heads)
                                   for chunk in _chunks(self.config))

    def events_csv(self) -> str:
        self.write_events_csv(out := io.StringIO())
        return out.getvalue()

    def write_events_csv(self, file) -> None:
        """Write ``events_csv()`` to ``file`` a chunk of rounds a write."""
        file.write(EVENTS_HEADER)
        arc_text, moves = _arc_texts(self.graph), iter(self.moves)
        for chunk in _chunks(self.config):
            file.write(_events_text(chunk, moves, arc_text))

    def summary_json(self, **extra) -> str:
        """The run's facts and ``extra``'s, as sorted, indented JSON."""
        payload = {
            "policy": self.config.policy.value,
            "tiebreak": self.config.tiebreak.kind,
            "horizon": self.horizon,
            "n": self.graph.n,
            "m": self.graph.m,
            "robots": len(self.config.starts) + len(self.config.arrivals),
            "events": len(self.moves),
            "vertex_visit_counts": list(self.vertex_visit_counts),
            "edge_traversal_counts": list(self.edge_traversal_counts),
            **extra,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class SimState:
    """Mutable state of one run from round 0, as flat lists indexed by
    vertex or edge id: ``vlast``/``elast`` hold the last visit/traversal
    round (-1 for never) and ``vcnt``/``ecnt`` the counts.  ``robots[i]``
    is the position of robot ``i``.  ``moves`` (arc ids, see ``Trace``)
    records the run; ``arrivals`` holds the placements not made yet."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.graph = g = config.graph
        self.round = 0
        self.vlast = [-1] * g.n
        self.vcnt = [0] * g.n
        self.elast = [-1] * g.m
        self.ecnt = [0] * g.m
        self.robots: list[int] = []
        self.moves: list[int] = []
        self.arrivals = _placements(config)
        self.tiebreak = config.tiebreak.make()
        self.keys, self.slot = decision_keys(
            config.policy, g.n, self.vlast, self.vcnt, self.elast, self.ecnt)
        self._place()

    def _place(self) -> None:
        """Place the robots due in this round, marking their vertices."""
        for v in self.arrivals.pop(self.round):
            self.robots.append(v)
            self.vlast[v] = self.round
            self.vcnt[v] += 1


def init(config: SimConfig) -> SimState:
    """Round 0: the robots due in it placed, their start vertices marked."""
    return SimState(config)


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
    robots, arrivals = state.robots, state.arrivals
    record, choose = state.moves.append, state.tiebreak.choose
    for t in range(state.round + 1, state.round + rounds + 1):
        state.round = t
        if arrivals and t in arrivals:
            state._place()
        for rid, pos in enumerate(robots):
            tied = tied_entries(adj[pos], keys, slot)
            if len(tied) == 1:
                to, via, arc = tied[0]
            elif tied:
                to, via, arc = tied[choose(len(tied))]
            else:
                raise IsolatedVertexError(f"vertex {pos} has no neighbors")
            record(arc)
            robots[rid] = to
            vlast[to] = t
            vcnt[to] += 1
            elast[via] = t
            ecnt[via] += 1
    return state


def finish(state: SimState) -> SimState:
    """The check a run to the horizon ends with: a SCRIPTED tie-break must
    be read to its end, and entries left over raise ``ScriptUnusedError``."""
    if state.tiebreak.unread:
        raise ScriptUnusedError(
            f"{state.tiebreak.unread} script choices left unread at the "
            "horizon")
    return state


def _walk(config: SimConfig, sink: Sink) -> SimState:
    """Step ``config``'s run to the horizon one chunk of ``_chunks(config)``
    at a time.  After each chunk is stepped, ``sink(chunk, moves)`` gets
    its arc ids, which are then cleared, so the walk holds one chunk of
    moves.  Ends with ``finish``."""
    state = init(config)
    for chunk in _chunks(config):
        step(state, chunk[1] - state.round)
        sink(chunk, state.moves)
        state.moves.clear()
    return finish(state)


def relay(config: SimConfig, sink: Sink,
          read: Callable[[int], Sequence[int]]) -> None:
    """Hand ``sink`` each chunk of ``config``'s run as ``_walk`` does, for a
    run stepped elsewhere: ``read(count)`` returns the chunk's ``count``
    arc ids."""
    for chunk in _chunks(config):
        sink(chunk, read(chunk[2] * (chunk[1] - chunk[0] + 1)))


def run(config: SimConfig, sink: Sink | None = None) -> Trace:
    """``init`` plus ``horizon`` rounds of ``step``, every move recorded:
    ``_walk`` with a sink that appends each chunk's arc ids to one
    ``array('i')``.  A ``sink`` given gets each chunk too, as soon as it is
    stepped, with its arc ids as an ``array('i')``."""
    from array import array
    moves = array("i")

    def record(chunk: Chunk, chunk_moves: list[int]) -> None:
        done = len(moves)
        moves.fromlist(chunk_moves)
        if sink is not None:
            sink(chunk, moves[done:])

    state = _walk(config, record)
    return Trace(config=config,
                 moves=moves,
                 vertex_visit_counts=tuple(state.vcnt),
                 edge_traversal_counts=tuple(state.ecnt))


def run_series(config: SimConfig, after: int = 0) -> RefreshSeries:
    """``refresh_series(run(config), after)`` from ``_walk`` with a meter
    sink: the run holds one chunk of moves at a time."""
    meter = RefreshMeter(config.graph.n, after)
    heads = [w for _, _, w in config.graph.arcs]
    _walk(config, lambda chunk, moves: meter.feed(
        _visits(chunk, iter(moves), heads)))
    return meter.series()


class OutputSink:
    """The sink ``simulate`` walks a run with.  Each chunk's visits are fed
    to a ``RefreshMeter``, its rows are written to ``events``, and the
    ``metrics.csv`` rows of the rounds the meter closed are written to
    ``metrics``, so neither file's text is held whole."""

    def __init__(self, config: SimConfig, events, metrics):
        g = config.graph
        self.meter = RefreshMeter(g.n)
        self.heads = [w for _, _, w in g.arcs]
        self.arc_text = _arc_texts(g)
        self.fractions = coverage_fractions(g.n)
        self.events, self.metrics = events, metrics
        events.write(EVENTS_HEADER)
        metrics.write(METRICS_HEADER)

    def __call__(self, chunk: Chunk, moves: Sequence[int]) -> None:
        meter = self.meter
        done = len(meter.round_max)
        meter.feed(_visits(chunk, iter(moves), self.heads))
        self.events.write(_events_text(chunk, iter(moves), self.arc_text))
        self.metrics.write(metrics_rows(done, meter.round_max[done:],
                                        meter.covered[done:],
                                        self.fractions))

    def result(self) -> tuple[int, int | None]:
        """The peak refresh and coverage time of the rounds fed so far."""
        series = self.meter.series()
        return max(series.vertex_peak, default=0), series.coverage_time
