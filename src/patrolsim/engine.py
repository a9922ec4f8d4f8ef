"""Synchronous-round multi-robot simulation producing a deterministic trace."""

from __future__ import annotations

import io
import json
import os
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, NoReturn, Sequence

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
    """The one placement order, ``{round: [vertex, ...]}`` by ascending
    round: the starts, then the arrivals in config order.  A robot's id is
    its place in it."""
    placed = {0: list(config.starts)}
    for t, v in config.arrivals:
        placed.setdefault(t, []).append(v)
    return dict(sorted(placed.items()))


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
    for t in [*arrivals, config.horizon + 1]:
        per = max(1, EVENTS_CHUNK // robots if robots else t - first)
        for lo in range(first, t, per):
            yield lo, min(lo + per, t) - 1, robots, placed
            placed = []
        placed = arrivals.get(t, [])
        robots, first = robots + len(placed), t


def _arc_texts(graph: Graph) -> list[str]:
    """Each arc's ``events.csv`` text, ``"from,edge,to\n"``, by arc id."""
    return [f"{u},{e},{w}\n" for u, e, w in graph.arcs]


def _events_text(chunk: Chunk, moves: Sequence[int],
                 arc_text: Sequence[str]) -> str:
    """``chunk``'s ``events.csv`` rows, from its arc ids ``moves``.  A
    row is three texts, ``"t,"``, ``"rid,"`` and the arc's text, laid out
    one slice a column: no Python step runs per row."""
    first, last, robots, _ = chunk
    rounds, width = last - first + 1, 3 * robots
    laid = [None] * (width * rounds)
    round_text = list(map("{},".format, range(first, last + 1)))
    for rid in range(robots):
        laid[3 * rid::width] = round_text
    laid[1::3] = [f"{rid}," for rid in range(robots)] * rounds
    laid[2::3] = [arc_text[a] for a in moves]
    return "".join(laid)


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
            (t, v) for t in placed for v in placed[t]))

    def replay(self, sink: Sink) -> None:
        """``relay`` of the recorded run: ``sink`` gets ``run``'s chunks."""
        relay(self.config, sink, io.BytesIO(self.moves))

    @property
    def events(self) -> tuple[Event, ...]:
        """Every move as ``(round, robot, from, edge, to)``, replayed from
        ``moves`` on each read: a chunk's moves are its rounds times its
        robots, in that order."""
        arcs, events = self.graph.arcs, []
        self.replay(lambda chunk, moves: events.extend(
            (t, rid, *arcs[a]) for (t, rid), a in zip(product(
                range(chunk[0], chunk[1] + 1), range(chunk[2])), moves)))
        return tuple(events)

    def events_csv(self) -> str:
        """The run's ``events.csv`` text, replayed from ``moves``."""
        arc_text, texts = _arc_texts(self.graph), [EVENTS_HEADER]
        self.replay(lambda chunk, moves: texts.append(
            _events_text(chunk, moves, arc_text)))
        return "".join(texts)

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
    is the position of robot ``i``, and ``ids`` is ``(0, ..., len(robots)
    - 1)``.  ``moves`` (arc ids, see ``Trace``) records the run;
    ``arrivals`` holds the placements not made yet, the next one first."""

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
        self.ids = tuple(range(len(self.robots)))


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
    horizon raises ``ValueError`` before any round is played.  A ``state``
    that ``step`` raised from mid-way is not stepped again.

    Between arrival rounds the robots stay the same, so each such stretch
    of rounds is one loop over its ``(round, robot)`` pairs.  At an
    adjacency list of three entries the loop picks the least key itself,
    as ``tied_entries`` would, and asks the tie-break only on a tie, with
    the tied entries in adjacency order; other lengths call the kernel.
    """
    left = state.config.horizon - state.round
    if not 0 <= rounds <= left:
        raise ValueError(f"{rounds} rounds asked, {left} left to the horizon")
    adj, keys, slot = state.graph.adj, state.keys, state.slot
    vlast, vcnt, elast, ecnt = state.vlast, state.vcnt, state.elast, state.ecnt
    robots, arrivals = state.robots, state.arrivals
    record, choose = state.moves.append, state.tiebreak.choose
    first, stop = state.round + 1, state.round + rounds + 1
    while first < stop:  # the stretch of rounds first..end-1
        if arrivals and first in arrivals:
            state.round = first
            state._place()
        end = min(next(iter(arrivals)), stop) if arrivals else stop
        for t, rid in product(range(first, end), state.ids):
            entries = adj[robots[rid]]
            if len(entries) == 3:
                a, b, c = entries
                ka, kb, kc = keys[a[slot]], keys[b[slot]], keys[c[slot]]
                if ka < kb:
                    entry = (a if ka < kc else c if kc < ka
                             else (a, c)[choose(2)])
                elif kb < ka:
                    entry = (b if kb < kc else c if kc < kb
                             else (b, c)[choose(2)])
                elif ka < kc:
                    entry = (a, b)[choose(2)]
                else:
                    entry = c if kc < ka else (a, b, c)[choose(3)]
            else:
                tied = tied_entries(entries, keys, slot)
                if len(tied) == 1:
                    entry = tied[0]
                elif tied:
                    entry = tied[choose(len(tied))]
                else:
                    raise IsolatedVertexError(
                        f"vertex {robots[rid]} has no neighbors")
            to, via, arc = entry
            record(arc)
            robots[rid] = to
            vlast[to] = t
            vcnt[to] += 1
            elast[via] = t
            ecnt[via] += 1
        first = end
    state.round = stop - 1
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


def relay(config: SimConfig, sink: Sink, source) -> None:
    """Hand ``sink`` each chunk of ``config``'s run as ``_walk`` does, for a
    run stepped elsewhere, reading its arc ids from ``source``, a binary
    file of ``array('i')`` bytes as ``send`` writes them.  A source that
    ends before the horizon raises ``EOFError``."""
    from array import array
    size = array("i").itemsize
    for chunk in _chunks(config):
        count = size * chunk[2] * (chunk[1] - chunk[0] + 1)
        data = source.read(count)
        if len(data) < count:
            raise EOFError("the run ended before its horizon")
        sink(chunk, array("i", data))


def send(fd: int, moves: Sequence[int]) -> None:
    """Write ``moves``, a chunk's arc ids in the ``array('i')`` that ``run``
    hands its sink, to the file descriptor ``fd``, for ``relay`` to read."""
    data = memoryview(moves).cast("B")
    while data:
        data = data[os.write(fd, data):]


class WorkersError(Exception):
    """``PATROLSIM_WORKERS`` names no count of processes."""


def _workers() -> int:
    """``min(PATROLSIM_WORKERS, CPUs)``: the processes a command may run
    in.  PATROLSIM_WORKERS defaults to the CPU count and must be an integer
    of at least 1, or ``WorkersError`` is raised."""
    cpus = os.cpu_count() or 1
    setting = os.environ.get("PATROLSIM_WORKERS")
    try:
        wanted = cpus if setting is None else int(setting)
    except ValueError:
        raise WorkersError(f"PATROLSIM_WORKERS must be an integer, "
                           f"got {setting!r}") from None
    if wanted < 1:
        raise WorkersError(f"PATROLSIM_WORKERS must be at least 1, "
                           f"got {setting!r}")
    return min(wanted, cpus)


def forkable() -> bool:
    """Whether work may go to a forked second process: ``_workers()`` is
    above 1, this process is no forked ``Child``, ``os.fork`` exists and no
    other thread runs, whose locks a child could inherit held."""
    threading = sys.modules.get("threading")
    return (_workers() > 1 and not Child.forked and hasattr(os, "fork")
            and (threading is None or threading.active_count() == 1))


# the errors a child names by these bases, for its parent to raise as such
_RAISED = {"ValueError": ValueError, "OSError": OSError}


class Child:
    """A forked process that reports once to its parent through a pipe.

    ``Child()`` forks.  In the child ``pid`` is 0, ``fd`` the pipe's
    write end, for ``report``, and ``forkable()`` False.  In the parent
    ``fd`` is the read end, and ``result()`` reads the report and reaps
    the child.  Leaving the ``with`` block of a child not reaped kills and
    reaps it, so whatever raises in the parent, no process outlives the
    block."""

    forked = False  # True in a forked child: it never forks again

    def __init__(self):
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        # the parent reads and the child writes, in the same statements
        self.fd, other = ((read_end, write_end) if self.pid
                          else (write_end, read_end))
        os.close(other)
        Child.forked = Child.forked or not self.pid

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        if self.pid:
            import signal
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def result(self, what: str) -> list:
        """The list the child's work returned, once the child has closed
        the pipe and been reaped.  A reported ``ValueError`` or ``OSError``
        is raised as that type; any other error, and a child that ended
        without a report (``exit code n``, ``signal n``), as
        ``RuntimeError(f"{what} failed: {kind} {message}")``."""
        with open(self.fd, "rb") as pipe:
            self.fd = None
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = 0
        kind, *done = json.loads(data) if data else (
            ["exit code", code] if code >= 0 else ["signal", -code])
        if kind == "ok":
            return done
        if kind in _RAISED:
            raise _RAISED[kind](done[0])
        raise RuntimeError(f"{what} failed: {kind} {done[0]}")


def report(fd: int, work: Callable[[], list]) -> NoReturn:
    """The end of a forked child: ``["ok", *work()]``, or ``[error type,
    message]`` if ``work`` raises, is written to ``fd`` for the parent's
    ``Child.result``.  A ``ValueError`` or ``OSError`` is named by that
    base, a subclass too.  Every path leaves through ``os._exit``: the
    child never returns into its caller, prints no traceback and flushes
    no buffer it inherited."""
    code = 1
    try:
        try:
            done = ["ok", *work()]
        except Exception as exc:  # the parent raises it
            done = [next((name for name, base in _RAISED.items()
                          if isinstance(exc, base)), type(exc).__name__),
                    str(exc)]
        send(fd, json.dumps(done).encode())
        code = 0
    finally:
        os._exit(code)


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
    """``refresh_series(run(config), after)`` from ``_walk`` into a
    ``RefreshMeter``: the run holds one chunk of moves at a time."""
    meter = RefreshMeter(config.graph, after)
    _walk(config, meter)
    return meter.series()


class OutputSink:
    """The sink ``simulate`` walks a run with.  Each chunk is handed to a
    ``RefreshMeter``, its rows are written to ``events``, and the
    ``metrics.csv`` rows of the rounds the meter closed are written to
    ``metrics``, so neither file's text is held whole."""

    def __init__(self, config: SimConfig, events, metrics):
        g = config.graph
        self.meter = RefreshMeter(g)
        self.arc_text = _arc_texts(g)
        self.fractions = coverage_fractions(g.n)
        self.events, self.metrics = events, metrics
        events.write(EVENTS_HEADER)
        metrics.write(METRICS_HEADER)

    def __call__(self, chunk: Chunk, moves: Sequence[int]) -> None:
        meter = self.meter
        done = len(meter.round_max)
        meter(chunk, moves)
        self.events.write(_events_text(chunk, moves, self.arc_text))
        self.metrics.write(metrics_rows(done, meter.round_max[done:],
                                        meter.covered[done:],
                                        self.fractions))

    def result(self) -> tuple[int, int | None]:
        """The peak refresh and coverage time of the rounds fed so far."""
        series = self.meter.series()
        return max(series.vertex_peak, default=0), series.coverage_time
