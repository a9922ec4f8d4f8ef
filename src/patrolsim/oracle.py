"""Brute-force verifiers: adversarial tie-break search and a naive
reference simulator for differential testing."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import SimConfig
from .graph import Graph
from .policies import PolicyKind, decision_keys, tied_entries


# A smaller subtree costs less to walk again than to store: a stored
# state keeps vlast and the key list as tuples.
MEMO_MIN_NODES = 1024


@dataclass(frozen=True)
class WorstCaseResult:
    peak: int                      # worst per-vertex peak refresh found
    witness: tuple[int, ...]       # SCRIPTED choice indices reproducing it
    complete: bool                 # False: budget hit, peak is a lower bound
    nodes_explored: int


def _state(vlast: list[int], keys: list[int] | None) -> tuple:
    """The part of a search node's state kept in lists: ``keys`` is None
    where the policy's keys are ``vlast`` or constant."""
    return tuple(vlast) if keys is None else (tuple(vlast), tuple(keys))


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
    bounded by Python's recursion limit.  It keeps only ``vlast``, for the
    gaps, and the policy's key list from ``decision_keys``.  A frame copies
    both for its children to restore, so forced moves log nothing; the
    copies cost O(frames on the path * (n + m)) ints.  A leaf scans
    ``min(vlast)`` only if its peak beats the best or a vertex was last
    seen before round ``horizon - best``: only such leaves raise the best.

    A branch frame whose subtree held at least ``MEMO_MIN_NODES`` nodes
    stores that node count under its exact state, ``(pos, t, peak)`` and
    then ``vlast`` and the key list, when it is popped.  A branch node
    whose state is stored adds the count, cut at the budget, instead of
    walking the subtree again.  The subtree's leaves are the ones already
    walked, and the best only rises, so none of them can raise it: node
    order, node counts, the budget check and the result stay as walked.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} out of range")
    if g.degree(start) == 0 and horizon > 0:
        raise ValueError(f"start vertex {start} is isolated")
    vlast, vcnt = [-1] * g.n, [0] * g.n
    vlast[start] = 0
    vcnt[start] = 1
    adj = g.adj
    keys, slot = decision_keys(policy, g.n, vlast, vcnt, [-1] * g.m,
                               [0] * g.m)
    # a move stamps its round on an LRV_E key and bumps an LFV key; LRV_V's
    # keys are vlast and RANDOM's constant
    bump = policy in (PolicyKind.LFV_V, PolicyKind.LFV_E)
    own_keys = bump or policy is PolicyKind.LRV_E

    best_peak, best_witness = -1, ()
    nodes = 0
    complete = True
    # vertices last seen before round horizon - best_peak (never counts as
    # round 0): while there are none, no trailing gap can raise best_peak
    cutoff, stale = horizon + 1, g.n
    # One frame per branch point on the path, a node whose tied set does
    # not have exactly one entry: [tied set, index of the next child,
    # (node vertex, time, peak), node stale, copy of vlast, copy of keys or
    # None, node number].  The choice taken at a frame is its next index
    # minus one.
    stack: list[list] = []
    # explored[(vertex, time, peak)][_state(...)]: the node count of a
    # branch node's subtree, walked to its end
    explored: dict[tuple, dict] = {}
    pos, t, peak = start, 1, 0
    while True:
        # visit the node (pos, t, peak)
        nodes += 1
        if nodes > node_budget:
            complete = False
            break
        if t > horizon:
            # exactly the leaves whose peak or trailing gap beats the best
            if peak > best_peak or stale:
                trailing = horizon - max(min(vlast), 0)
                best_peak = peak if peak > trailing else trailing
                best_witness = tuple(f[1] - 1 for f in stack)
                # the leaf backtracks, so only the frames need a recount
                cutoff = horizon - best_peak
                for f in stack:
                    f[3] = sum(max(v, 0) < cutoff for v in f[4])
            tied = ()
        else:
            tied = tied_entries(adj[pos], keys, slot)
        if len(tied) == 1:
            entry = tied[0]
        else:
            if tied:
                at = (pos, t, peak)
                seen = explored.get(at)
                size = seen and seen.get(
                    _state(vlast, keys if own_keys else None))
                if size:  # count the subtree's other nodes unwalked
                    nodes += size - 1
                    if nodes > node_budget:
                        nodes = node_budget + 1
                        complete = False
                        break
                else:
                    stack.append([tied, 0, at, stale, vlast[:],
                                  keys[:] if own_keys else None, nodes])
            # backtrack to the deepest frame with a child left
            while stack:
                frame = stack[-1]
                tied, idx = frame[0], frame[1]
                if idx < len(tied):
                    break
                stack.pop()
                size = nodes - frame[6] + 1
                if size >= MEMO_MIN_NODES:
                    explored.setdefault(frame[2], {})[
                        _state(frame[4], frame[5])] = size
            else:
                break
            if idx:  # the first child starts from the frame's own state
                _, _, (_, t, peak), stale, saved, saved_keys, _ = frame
                vlast[:] = saved
                if own_keys:
                    keys[:] = saved_keys
            frame[1] = idx + 1
            entry = tied[idx]
        # move to entry's vertex in round t
        pos = entry[0]
        old = vlast[pos]
        if old < 0:
            old = 0
        if old < cutoff <= t:
            stale -= 1
        vlast[pos] = t
        if t - old > peak:
            peak = t - old
        if own_keys:
            if bump:
                keys[entry[slot]] += 1
            else:
                keys[entry[1]] = t
        t += 1
    return WorstCaseResult(peak=best_peak, witness=best_witness,
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
    rng = random.Random(tb.seed)
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
