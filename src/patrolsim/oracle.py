"""Brute-force verifiers: adversarial tie-break search and a naive
reference simulator for differential testing."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import SimConfig
from .graph import Graph
from .policies import PolicyKind, decision_keys, tied_entries


# A smaller subtree costs less to walk again than to store.
MEMO_MIN_NODES = 1024


@dataclass(frozen=True)
class WorstCaseResult:
    peak: int                      # worst per-vertex peak refresh found
    witness: tuple[int, ...]       # SCRIPTED choice indices reproducing it
    complete: bool                 # False: budget hit, peak is a lower bound
    nodes_explored: int


def _decision_class(keys: list[int] | None, bump: bool) -> tuple:
    """What a search subtree's shape depends on besides ``(pos, t)``: the
    comparisons among the policy's keys.  An LRV move stamps a round newer
    than every key, so the keys' dense ranks; an LFV move adds 1, so each
    key minus the first; RANDOM's keys (None) are constant."""
    if keys is None:
        return ()
    if bump:
        first = keys[0]
        return tuple([k - first for k in keys])
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return tuple(map(rank.__getitem__, keys))


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

    A node is dead when no vertex was last seen before that round and its
    peak is at most the best: no gap below it can exceed the best, so no
    leaf below it raises the best or changes the witness.  A subtree's
    shape, and so its node count, depends only on ``(pos, t)`` and the
    node's ``_decision_class``.  A branch frame whose subtree held at least
    ``MEMO_MIN_NODES`` nodes stores that count under both when it is
    popped, and a dead branch node of a stored class adds the count, cut
    at the budget, instead of walking the subtree.  Under LRV, once no
    vertex is stale and no key is -1, the keys are distinct and the rest
    of the path is forced: its nodes are counted at once, cut at the
    budget, and the walk goes on at the leaf.  No gap of such a tail
    exceeds the best, so the leaf raises the best only to its peak so
    far.  Node order, node counts, the budget check and the result stay
    those of the full walk.
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
    stamp = policy in (PolicyKind.LRV_V, PolicyKind.LRV_E)

    best_peak, best_witness = -1, ()
    nodes = 0
    complete = True
    # vertices last seen before round horizon - best_peak (never counts as
    # round 0): while there are none, no trailing gap can raise best_peak
    cutoff, stale = horizon + 1, g.n
    # One frame per branch point on the path, a node whose tied set does
    # not have exactly one entry: [tied set, index of the next child,
    # (node vertex, time), peak, node stale, copy of vlast, copy of keys or
    # None, node number].  The choice taken at a frame is its next index
    # minus one.
    stack: list[list] = []
    # explored[(vertex, time)][_decision_class(...)]: the node count of a
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
                    f[4] = sum(max(v, 0) < cutoff for v in f[5])
            tied = ()
        else:
            tied = tied_entries(adj[pos], keys, slot)
        if len(tied) == 1:
            entry = tied[0]
        else:
            if tied:
                at = (pos, t)
                seen = not stale and peak <= best_peak and explored.get(at)
                size = seen and seen.get(_decision_class(
                    keys if own_keys else vlast if stamp else None, bump))
                if size:  # a dead subtree: count its other nodes unwalked
                    nodes += size - 1
                    if nodes > node_budget:
                        nodes = node_budget + 1
                        complete = False
                        break
                else:
                    stack.append([tied, 0, at, peak, stale, vlast[:],
                                  keys[:] if own_keys else None, nodes])
            # backtrack to the deepest frame with a child left
            while stack:
                frame = stack[-1]
                tied, idx = frame[0], frame[1]
                if idx < len(tied):
                    break
                stack.pop()
                size = nodes - frame[7] + 1
                if size >= MEMO_MIN_NODES:
                    explored.setdefault(frame[2], {})[_decision_class(
                        frame[6] if own_keys else frame[5] if stamp
                        else None, bump)] = size
            else:
                break
            if idx:  # the first child starts from the frame's own state
                _, _, (_, t), peak, stale, saved, saved_keys, _ = frame
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
        vlast[pos] = t
        if t - old > peak:
            peak = t - old
        if own_keys:
            if bump:
                keys[entry[slot]] += 1
            else:
                keys[entry[1]] = t
        if old < cutoff <= t:
            stale -= 1
            if not stale and stamp and -1 not in keys:
                # distinct LRV keys never tie again: count the forced
                # nodes up to the leaf, cut at the budget, and go there
                nodes += horizon - t
                if nodes > node_budget:
                    nodes = node_budget
                t = horizon
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
