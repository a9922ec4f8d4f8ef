"""Brute-force verifiers: adversarial tie-break search and a naive
reference simulator for differential testing."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import SimConfig
from .graph import Graph
from .policies import PolicyKind, decision_keys, tied_entries


@dataclass(frozen=True)
class WorstCaseResult:
    policy: PolicyKind
    start: int
    horizon: int
    peak: int                      # worst per-vertex peak refresh found
    witness: tuple[int, ...]       # SCRIPTED choice indices reproducing it
    complete: bool                 # False: budget hit, peak is a lower bound
    nodes_explored: int


def exhaustive_tiebreak_search(g: Graph, policy: PolicyKind, start: int,
                               horizon: int,
                               node_budget: int = 2_000_000) -> WorstCaseResult:
    """Depth-first enumeration of every SCRIPTED tie choice for one robot.

    Returns the maximum per-vertex peak refresh over all tie-break
    schedules, with the lexicographically smallest witness among maxima
    (choices are only recorded for genuinely tied sets, matching the
    engine's script consumption).  If the node budget is exhausted the
    result is flagged as a lower bound.  The tied sets come from the
    engine's decision kernel.  The walk keeps an explicit stack with a
    frame only where a choice is open, so its depth (the horizon) is not
    bounded by Python's recursion limit, and it undoes moves from a log.
    """
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} out of range")
    if g.degree(start) == 0 and horizon > 0:
        raise ValueError(f"start vertex {start} is isolated")
    vlast, vcnt = [-1] * g.n, [0] * g.n
    elast, ecnt = [-1] * g.m, [0] * g.m
    vlast[start] = 0
    vcnt[start] = 1
    adj = g.adj
    keys, slot = decision_keys(policy, g.n, vlast, vcnt, elast, ecnt)

    best_peak, best_witness = -1, ()
    nodes = 0
    complete = True
    # (vertex, edge, its vlast, its elast) before each move on the path
    undo: list[tuple[int, int, int, int]] = []
    # One frame per branch point on the path, a node whose tied set does
    # not have exactly one entry: [tied set, index of the next child, node
    # time, node peak, undo log length].  Forced moves get no frame; the
    # choice taken at a frame is its next index minus one.
    stack: list[list] = []
    pos, t, peak = start, 1, 0
    while True:
        # visit the node (pos, t, peak)
        nodes += 1
        if nodes > node_budget:
            complete = False
            break
        if t > horizon:
            trailing = horizon - max(min(vlast), 0)
            total = peak if peak > trailing else trailing
            if total > best_peak:
                best_peak, best_witness = total, tuple(f[1] - 1 for f in stack)
            tied = ()
        else:
            tied = tied_entries(adj[pos], keys, slot)
        if len(tied) == 1:
            pos, eid = tied[0]
        else:
            if tied:
                stack.append([tied, 0, t, peak, len(undo)])
            # backtrack to the deepest frame with a child left
            while stack:
                frame = stack[-1]
                tied, idx, t, peak, mark = frame
                if idx < len(tied):
                    break
                stack.pop()
            else:
                break
            while len(undo) > mark:
                w, e, old_v, old_e = undo.pop()
                vlast[w], elast[e] = old_v, old_e
                vcnt[w] -= 1
                ecnt[e] -= 1
            frame[1] = idx + 1
            pos, eid = tied[idx]
        # move to pos along eid in round t
        old = vlast[pos]
        undo.append((pos, eid, old, elast[eid]))
        gap = t - (old if old >= 0 else 0)
        vlast[pos] = t
        vcnt[pos] += 1
        elast[eid] = t
        ecnt[eid] += 1
        t, peak = t + 1, (gap if gap > peak else peak)
    return WorstCaseResult(policy=policy, start=start, horizon=horizon,
                           peak=best_peak, witness=best_witness,
                           complete=complete, nodes_explored=nodes)


@dataclass(frozen=True)
class ReferenceTrace:
    events: tuple[tuple[int, int, int, int, int], ...]
    marks: tuple[tuple[int, int, int], ...]
    vertex_visit_counts: tuple[int, ...]
    edge_traversal_counts: tuple[int, ...]


def reference_run(config: SimConfig) -> ReferenceTrace:
    """Naive reimplementation of the simulation loop for differential
    testing.  Deliberately shares no code with the engine or the policy
    module: adjacency, state bookkeeping and the decision rules are all
    re-derived here from the edge list."""
    g = config.graph
    edge_ids = {}
    neighbors: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for eid, (u, v) in enumerate(sorted(tuple(sorted(e)) for e in g.edges)):
        edge_ids[(u, v)] = eid
        neighbors[u].append((v, eid))
        neighbors[v].append((u, eid))
    for v in neighbors:
        neighbors[v].sort()

    last_visit: dict[int, int] = {}
    visit_count: dict[int, int] = {v: 0 for v in range(g.n)}
    last_traversal: dict[int, int] = {}
    traversal_count: dict[int, int] = {e: 0 for e in range(len(edge_ids))}

    # tie-break resolution, re-implemented
    tb = config.tiebreak
    rng = random.Random(tb.seed if tb.seed is not None else config.seed)
    script = list(tb.script or ())

    def choose(n_tied: int) -> int:
        if n_tied == 1:
            return 0
        if tb.kind == "lowest_id":
            return 0
        if tb.kind == "seeded_random":
            return rng.randrange(n_tied)
        if not script:
            raise ValueError("script exhausted")
        idx = script.pop(0)
        if not (0 <= idx < n_tied):
            raise ValueError("script choice out of range")
        return idx

    events = []
    marks = []
    positions: list[int] = []

    def place(vertex: int, round_: int) -> None:
        positions.append(vertex)
        last_visit[vertex] = round_
        visit_count[vertex] += 1
        marks.append((round_, len(positions) - 1, vertex))

    for v in config.starts:
        place(v, 0)
    pending = sorted(((r, i, v) for i, (r, v) in enumerate(config.arrivals)),
                     key=lambda t: (t[0], t[1]))
    for r, _, v in [p for p in pending if p[0] == 0]:
        place(v, 0)
    pending = [p for p in pending if p[0] > 0]

    for t in range(1, config.horizon + 1):
        while pending and pending[0][0] == t:
            _, _, v = pending.pop(0)
            place(v, t)
        for rid in range(len(positions)):
            pos = positions[rid]
            nbrs = neighbors[pos]
            if not nbrs:
                raise ValueError(f"robot {rid} stranded at isolated vertex")
            if config.policy is PolicyKind.RANDOM:
                tied = list(nbrs)
            else:
                scored = []
                for w, eid in nbrs:
                    if config.policy is PolicyKind.LRV_V:
                        score = last_visit.get(w, -1)
                    elif config.policy is PolicyKind.LFV_V:
                        score = visit_count[w]
                    elif config.policy is PolicyKind.LRV_E:
                        score = last_traversal.get(eid, -1)
                    else:
                        score = traversal_count[eid]
                    scored.append((score, w, eid))
                lowest = min(s for s, _, _ in scored)
                tied = [(w, eid) for s, w, eid in scored if s == lowest]
                if config.policy in (PolicyKind.LRV_E, PolicyKind.LFV_E):
                    tied = sorted(tied, key=lambda we: we[1])
            w, eid = tied[choose(len(tied))]
            events.append((t, rid, pos, eid, w))
            positions[rid] = w
            last_visit[w] = t
            visit_count[w] += 1
            last_traversal[eid] = t
            traversal_count[eid] += 1

    return ReferenceTrace(
        events=tuple(events),
        marks=tuple(marks),
        vertex_visit_counts=tuple(visit_count[v] for v in range(g.n)),
        edge_traversal_counts=tuple(traversal_count[e]
                                    for e in range(len(edge_ids))))
