"""Brute-force verifiers: adversarial tie-break search and a naive
reference simulator for differential testing."""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import sub

from .engine import Child, SimConfig, forkable, report
from .graph import Graph
from .policies import PolicyKind, decision_keys, tied_entries


# A smaller subtree costs less to walk again than to store.
MEMO_MIN_NODES = 1024
# A walk that pushes fewer branch frames takes less time than a fork: an
# LRV walk pushes one every 16-27 us, and a fork's round trip takes 1.7 ms
# in a 16 MB process.
SPLIT_MIN_FRAMES = 64


@dataclass(frozen=True)
class WorstCaseResult:
    peak: int                      # worst per-vertex peak refresh found
    witness: tuple[int, ...]       # SCRIPTED choice indices reproducing it
    complete: bool                 # False: budget hit, peak is a lower bound
    nodes_explored: int


def _decision_class(keys: list[int] | None) -> tuple:
    """What an LFV or RANDOM search subtree's shape depends on besides
    ``(pos, t)``: the comparisons among the policy's keys.  An LFV move
    adds 1, so each key minus the first; RANDOM's keys (None) are
    constant."""
    if keys is None:
        return ()
    first = keys[0]
    return tuple([k - first for k in keys])


def _tour(path: list[int], n: int) -> tuple:
    """``(path, firsts, cmax)`` for the tour of a forced LRV tail, the
    ``p = len(path)`` positions that its walk repeats forever: ``firsts[v]``
    is the offset (1..p) of the first visit to ``v``, and ``firsts`` None if
    the tour misses a vertex; ``cmax`` is the longest gap between successive
    visits to one vertex around the tour, the gap across its end included.
    Both sequences are bytes where their values fit."""
    p = len(path)
    firsts, lasts = [0] * n, [0] * n
    cmax = 0
    for j, v in enumerate(path, 1):
        if lasts[v]:
            cmax = max(cmax, j - lasts[v])
        else:
            firsts[v] = j
        lasts[v] = j
    cmax = max(cmax, max(f + p - last for f, last in zip(firsts, lasts)
                         if last))
    pack = bytes if n <= 256 and p <= 255 else list
    return pack(path), pack(firsts) if all(firsts) else None, cmax


def _tour_peak(tour: tuple, first: int, vlast: list[int], peak: int,
               stale: int, cutoff: int, horizon: int) -> tuple[int, int]:
    """``(peak, stale)`` where a forced LRV tail that walks ``tour`` from
    round ``first`` on, with ``stale`` of its vertices last seen before
    round ``cutoff``, stops: where no vertex is stale, or at the horizon.
    With a vertex stale at the horizon ``vlast`` is that of the horizon;
    otherwise it may be left behind.

    For a tour with ``firsts``, each window of p rounds visits every
    vertex.  If ``first + p <= cutoff``, every vertex is stale until a
    round T with ``cutoff <= T``, and ``T <= horizon`` if also
    ``cutoff + p - 1 <= horizon``.  Every gap value has occurred by T: the
    first visits' and the tour's inner gaps by ``first + p``.  A vertex's
    gap across the tour's end closes where the vertex is next seen after
    ``first + p``, which it must be by T, unless the tour ends at it: then
    that gap is its first visit's offset, which its first gap matches.  So
    the peak is known without a move.  Otherwise the tail moves."""
    path, firsts, cmax = tour
    p = len(path)
    if firsts is not None and first + p <= cutoff <= horizon - p + 1:
        return max(peak, cmax, first + max(map(sub, firsts, vlast))), 0
    for k, t in enumerate(range(first + 1, horizon + 1)):
        pos = path[k % p]
        old = vlast[pos]
        vlast[pos] = t
        if t - old > peak:
            peak = t - old
        if old < cutoff <= t:
            stale -= 1
            if not stale:
                break
    return peak, stale


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
    leaf below it raises the best or changes the witness.  Under LFV and
    RANDOM a subtree's shape, and so its node count, depends only on
    ``(pos, t)`` and the node's ``_decision_class``.  A branch frame whose
    subtree held at least ``MEMO_MIN_NODES`` nodes stores that count under
    both when it is popped, and a dead branch node of a stored class adds
    the count, cut at the budget, instead of walking the subtree.

    No measured LRV search hit that table, so LRV keeps none.  Once an LRV
    move leaves no key at -1, every key is a distinct round, so no set
    ties again and the rest of the path is a forced tail.  Its nodes up
    to the leaf are counted at once, cut at the budget.  With no vertex
    stale the walk goes on at the leaf: no gap of the tail exceeds the
    best, so the leaf raises the best only to its peak so far.  Otherwise
    the tail's moves depend only on ``pos`` and the order of its keys,
    which decides every tie, and a stamp takes one order to one order.
    So where the walk comes back to a tail's vertex and order after p
    moves, it repeats those p moves forever: a tour.  A tail walks with
    the kernel until its order recurs, and ``tours`` stores the tour's
    ``_tour`` under both; a later tail of a stored order walks it without
    the kernel, or takes its peak in closed form (``_tour_peak``).  Each
    move updates ``vlast``, the peak, the keys and ``stale``, and the tail
    goes on at the leaf once no vertex is stale.  Node order, node counts,
    the budget check and the result stay those of the full walk.

    Where ``engine.forkable()``, the walk splits once, when it pushes its
    ``SPLIT_MIN_FRAMES``-th branch frame: a forked ``engine.Child`` walks
    every later child of the shallowest frame that has one, and this
    process only the subtree it is in.  Each keeps its copy of the tables,
    and the child starts from the best at the split.  The split is exact.
    The child's nodes follow the parent's in the full walk, so its node
    numbers shift by the parent's nodes past the split, and its node count
    by the same.  Counts do not depend on the best: a stored count equals
    the walk it replaces, so tables that differ change only what is walked.
    The child reports one entry per rise of its best, its node number,
    peak and witness.  Its lower starting best only makes it walk more:
    it rises wherever the full walk rises, at the same leaf to the same
    peak, and may rise more often below the full walk's best.  So the
    parent keeps the entries at or under the budget that beat its own final
    best, in order.  A budget that runs out in the parent's part ends the
    search there, and the child is killed.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if not (0 <= start < g.n):
        raise ValueError(f"start vertex {start} out of range")
    if g.degree(start) == 0 and horizon > 0:
        raise ValueError(f"start vertex {start} is isolated")
    walk = _tree_walk(g, policy, start, horizon, node_budget,
                      SPLIT_MIN_FRAMES if forkable() else 0)
    walked = _resume(walk, None)
    if walked is not None:  # the walk ended before its split
        return walked[0]
    with Child() as child:
        if not child.pid:
            report(child.fd, lambda: _report(_resume(walk, True)))
        res, at, _ = _resume(walk, False)
        if not res.complete:  # the budget ran out in the parent's part
            return res
        reported = child.result("search: the second process")
    return _merge(res, at, *reported, node_budget)


def _resume(walk, child: bool | None):
    """Send ``child`` to the ``_tree_walk`` generator ``walk`` (None to
    start it): the walk's ``(result, split node, rises)`` once it ends, or
    None where it stops at its split."""
    try:
        walk.send(child)
    except StopIteration as end:
        return end.value
    return None


def _report(walked: tuple) -> list:
    """What the child of a split walk tells its parent: its node count past
    the split and its rises, ``[node, peak, witness]`` each."""
    res, at, rises = walked
    return [res.nodes_explored - at, rises]


def _merge(res: WorstCaseResult, at: int, past: int, rises: list,
           budget: int) -> WorstCaseResult:
    """The one-process result of a walk split at node ``at``, from the
    parent's part ``res``, walked to its end within the budget, and the
    child's report.  The child's nodes come after the parent's in the
    one-process walk, so its node numbers shift by the parent's nodes past
    the split; a rise is kept at or under the budget, and where it beats
    the best so far.  The rises before the split, which the parent made
    too, beat none."""
    peak, witness = res.peak, res.witness
    shift = res.nodes_explored - at
    for node, rise, chosen in rises:
        if node + shift > budget:
            break
        if rise > peak:
            peak, witness = rise, tuple(chosen)
    nodes = res.nodes_explored + past
    if nodes > budget:
        return WorstCaseResult(peak=peak, witness=witness, complete=False,
                               nodes_explored=budget + 1)
    return WorstCaseResult(peak=peak, witness=witness, complete=True,
                           nodes_explored=nodes)


def _tree_walk(g: Graph, policy: PolicyKind, start: int, horizon: int,
               node_budget: int, split_frames: int):
    """The walk of ``exhaustive_tiebreak_search``, a generator returning
    ``(result, split node, rises)``.  Where it pushes its
    ``split_frames``-th branch frame it yields, and the value sent back
    says which part it walks on: True the child's, False the parent's.
    ``rises`` lists ``(node, peak, witness)`` at each rise of the best;
    the split node is None where the walk never split."""
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
    # branch node's subtree, walked to its end; LFV and RANDOM only
    explored: dict[tuple, dict] = {}
    # tours[(vertex, order)]: the _tour of a forced LRV tail from there,
    # where a walk has seen its vertex and order recur.  order lists the
    # indices of the keys from the oldest round on, as bytes where they
    # stay below 256.
    tours: dict[tuple, tuple] = {}
    pack = bytes if len(keys) <= 256 else tuple
    indices, by_key = range(len(keys)), keys.__getitem__
    # the LRV key that the last move overwrote: a tail begins where it was
    # the last -1
    was = 0
    pos, t, peak = start, 1, 0
    pushed, split_at, rises = 0, None, []
    while True:
        # visit the node (pos, t, peak)
        nodes += 1
        if nodes > node_budget:
            complete = False
            break
        if t > horizon:
            # exactly the leaves whose peak or trailing gap beats the best
            if peak > best_peak or stale:
                # with no vertex stale, no trailing gap exceeds the best (and
                # a tail may have left vlast behind)
                trailing = horizon - max(min(vlast), 0)
                best_peak = peak if peak > trailing or not stale else trailing
                best_witness = tuple(f[1] - 1 for f in stack)
                rises.append((nodes, best_peak, best_witness))
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
                seen = (not stamp and not stale and peak <= best_peak
                        and explored.get(at))
                size = seen and seen.get(_decision_class(
                    keys if bump else None))
                if size:  # a dead subtree: count its other nodes unwalked
                    nodes += size - 1
                    if nodes > node_budget:
                        nodes = node_budget + 1
                        complete = False
                        break
                else:
                    stack.append([tied, 0, at, peak, stale, vlast[:],
                                  keys[:] if own_keys else None, nodes])
                    pushed += 1
                    if pushed == split_frames:
                        split_at = nodes
                        # the shallowest frame with a child after the one
                        # on the path, which for the new frame is its first
                        depth, frame = next(
                            (depth, f) for depth, f in enumerate(stack)
                            if f[1] < len(f[0]))
                        taken = max(frame[1], 1)
                        # either part may store a partial count for that frame
                        # and the ones above it when it pops them, and then
                        # its walk ends: no lookup reads those counts
                        if (yield):  # the child: the frame's later children
                            frame[1] = taken
                            del stack[depth + 1:]
                        else:  # the parent: the subtree on the path
                            frame[0] = frame[0][:taken]
            # backtrack to the deepest frame with a child left
            while stack:
                frame = stack[-1]
                tied, idx = frame[0], frame[1]
                if idx < len(tied):
                    break
                stack.pop()
                size = nodes - frame[7] + 1
                if size >= MEMO_MIN_NODES and not stamp:
                    explored.setdefault(frame[2], {})[
                        _decision_class(frame[6])] = size
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
        if stamp:
            was = keys[entry[slot]]
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
        if was < 0 and -1 not in keys:
            # every key is a distinct round from here, so the path to the
            # leaf is forced: count its nodes, and move along it while a
            # vertex is stale
            nodes += horizon - t
            if nodes > node_budget:  # the leaf's visit cuts the walk
                nodes = node_budget
            elif stale:
                home, order = pos, pack(sorted(indices, key=by_key))
                tour = tours.get((home, order))
                first = t
                if tour is None:
                    # walk with the kernel until the class recurs: back home
                    # over the same newest two keys (or one), in one order
                    newest, second = order[-1], order[-2:][0]
                    path = []
                    for t in range(first + 1, horizon + 1):
                        entry = tied_entries(adj[pos], keys, slot)[0]
                        pos = entry[0]
                        path.append(pos)
                        old = vlast[pos]
                        vlast[pos] = keys[entry[slot]] = t  # LRV_V: vlast
                        if t - old > peak:
                            peak = t - old
                        if old < cutoff <= t:
                            stale -= 1
                            if not stale:
                                break
                        if (pos == home and keys[newest] == t
                                and keys[second] >= t - 1
                                and pack(sorted(indices, key=by_key))
                                == order):
                            tour = tours[home, order] = _tour(path, g.n)
                            first = t
                            break
                if stale and tour is not None:
                    peak, stale = _tour_peak(tour, first, vlast, peak, stale,
                                             cutoff, horizon)
            t = horizon
        t += 1
    return WorstCaseResult(peak=best_peak, witness=best_witness,
                           complete=complete, nodes_explored=nodes), \
        split_at, rises


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
