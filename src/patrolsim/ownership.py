"""Owner assignment of triangles and dual edges to primal vertices.

Every triangle is owned by one of its corners; the owner of a triangle also
owns the dual edges to all adjacent triangles.  The key property to uphold:
the owners of two adjacent triangles must be connected in the primal graph
(equal owners are accepted as trivially connected; the search prefers
distinct adjacent owners and only falls back to equality when forced).
"""

from __future__ import annotations

from dataclasses import dataclass

from .triangulation import Triangulation


@dataclass(frozen=True)
class OwnerMap:
    triangle_owner: tuple[int, ...]  # per triangle, and its dual edges


@dataclass(frozen=True)
class OwnershipInfeasible:
    """The search found no assignment: out of budget, or none exists."""
    message: str


def _owners_connected(t: Triangulation, a: int, b: int) -> bool:
    return a == b or t.primal_adjacent(a, b)


def assign_owners(t: Triangulation) -> OwnerMap | OwnershipInfeasible:
    """Greedy corner choice with backtracking.

    Triangles are processed in index order.  Candidate owners are the
    triangle's corners, ordered to prefer (1) corners lying on a primal
    edge shared with some dual neighbor, (2) corners adjacent (not equal)
    to every already-assigned neighbor's owner, (3) lowest primal id.
    On grids this succeeds without backtracking; if the budget runs out an
    infeasibility report is returned instead of raising.
    """
    budget = 200_000  # candidate tries
    ntri = len(t.triangles)
    dual = t.dual
    shared_corners = [set() for _ in range(ntri)]
    for eid, (ti, tj) in enumerate(dual.edges):
        u, v = t.shared_primal_edge[eid]
        shared_corners[ti].update((u, v))
        shared_corners[tj].update((u, v))

    owner = [-1] * ntri
    nodes = 0

    def candidates(ti: int) -> list[int]:
        assigned_nbr_owners = [owner[tj] for tj, _, _ in dual.neighbors(ti)
                               if owner[tj] >= 0]

        def key(c: int):
            on_shared = 0 if c in shared_corners[ti] else 1
            strict = 0 if all(c != o and t.primal_adjacent(c, o)
                              for o in assigned_nbr_owners) else 1
            return (on_shared, strict, c)

        return sorted(t.triangles[ti], key=key)

    def feasible(ti: int, c: int) -> bool:
        return all(_owners_connected(t, c, owner[tj])
                   for tj, _, _ in dual.neighbors(ti) if owner[tj] >= 0)

    # Depth-first on an explicit stack, one frame per triangle on the
    # path: [candidate corners, index of the next one].  Past the budget
    # every frame pops, each with candidates left counting one more node.
    found = not ntri
    stack = [[candidates(0), 0]] if ntri else []
    while stack:
        frame = stack[-1]
        ti = len(stack) - 1
        owner[ti] = -1  # undo the candidate whose subtree failed
        cands, idx = frame
        if idx == len(cands):
            stack.pop()
            continue
        frame[1] = idx + 1
        nodes += 1
        if nodes > budget:
            stack.pop()
            continue
        if feasible(ti, cands[idx]):
            owner[ti] = cands[idx]
            if ti + 1 == ntri:
                found = True
                break
            stack.append([candidates(ti + 1), 0])

    if found:
        return OwnerMap(triangle_owner=tuple(owner))
    return OwnershipInfeasible("node budget exhausted" if nodes > budget
                               else "no feasible assignment exists")


def verify_theorem1(t: Triangulation, o: OwnerMap) -> list[tuple[int, int]]:
    """Adjacent-triangle pairs whose owners are not connected in the primal
    graph.  Empty list means the connected-owners property holds."""
    violations = []
    for ti, tj in t.dual.edges:
        a, b = o.triangle_owner[ti], o.triangle_owner[tj]
        if not _owners_connected(t, a, b):
            violations.append((ti, tj))
    return violations


@dataclass(frozen=True)
class DualEdgeOwnershipReport:
    violations: tuple[int, ...]   # primal vertices owning over the bound
    max_dual_edges_owned: int     # over primal vertices
    bound: int                    # the constant checked against


def verify_theorem2(t: Triangulation, o: OwnerMap) -> DualEdgeOwnershipReport:
    """Bounded ownership: a dual edge is owned by the owners of its two
    triangles, and no primal vertex may own more than 18 dual edges (each
    triangle has <= 3 dual edges and a primal vertex is a corner of at
    most deg-many triangles, so a small constant suffices)."""
    bound = 18
    owned = [0] * len(t.points)
    for ti, tj in t.dual.edges:
        a, b = o.triangle_owner[ti], o.triangle_owner[tj]
        owned[a] += 1
        if b != a:
            owned[b] += 1
    return DualEdgeOwnershipReport(
        violations=tuple(v for v, k in enumerate(owned) if k > bound),
        max_dual_edges_owned=max(owned, default=0), bound=bound)
