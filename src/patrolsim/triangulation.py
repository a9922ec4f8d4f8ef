"""Triangulations: primal vertices with positions, triangles, derived dual."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graph import Graph


class TriangulationError(ValueError):
    """Structurally invalid triangulation data."""


@dataclass(frozen=True)
class Triangulation:
    """A triangulated region and the dual graph derived from it.

    Two triangles are dual-adjacent iff they share a primal edge; a primal
    edge is shared by at most two triangles, so the dual has max degree 3.
    """

    points: tuple[tuple[float, float], ...]
    triangles: tuple[tuple[int, int, int], ...]
    primal_edges: frozenset[tuple[int, int]] = field(compare=False)
    dual: Graph = field(compare=False)
    # canonical dual edge id -> shared primal edge (u, v), u < v
    shared_primal_edge: tuple[tuple[int, int], ...] = field(compare=False)

    @staticmethod
    def build(points: Sequence[tuple[float, float]],
              triangles: Sequence[tuple[int, int, int]]) -> "Triangulation":
        npts = len(points)
        tris = []
        for t in triangles:
            a, b, c = sorted(t)
            if not (0 <= a < npts) or not (0 <= c < npts):
                raise TriangulationError(f"triangle {t} out of range")
            if a == b or b == c:
                raise TriangulationError(f"degenerate triangle {t}")
            tris.append((a, b, c))
        tris = tuple(tris)
        if len(set(tris)) != len(tris):
            raise TriangulationError("duplicate triangle")

        edge_tris: dict[tuple[int, int], list[int]] = {}
        for ti, (a, b, c) in enumerate(tris):
            for u, v in ((a, b), (a, c), (b, c)):
                edge_tris.setdefault((u, v), []).append(ti)
        for e, owners in edge_tris.items():
            if len(owners) > 2:
                raise TriangulationError(
                    f"primal edge {e} shared by {len(owners)} triangles")

        dual_edges = []
        shared = {}
        for e, tlist in edge_tris.items():
            if len(tlist) == 2:
                ti, tj = sorted(tlist)
                dual_edges.append((ti, tj))
                shared[(ti, tj)] = e
        dual = Graph(len(tris), dual_edges,
                     meta={"family": "triangulation-dual"})
        shared_by_eid = tuple(shared[e] for e in dual.edges)
        return Triangulation(points=tuple((float(x), float(y))
                                          for x, y in points),
                             triangles=tris,
                             primal_edges=frozenset(edge_tris),
                             dual=dual,
                             shared_primal_edge=shared_by_eid)

    def primal_adjacent(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.primal_edges


# --- text format (written by `generate grid`; nothing reads it) --------
#
#   P <num points>
#   <x> <y>          (one line per point, ids implicit 0..)
#   T <num triangles>
#   <a> <b> <c>      (one line per triangle)

def dumps_triangulation(t: Triangulation) -> str:
    lines = [f"P {len(t.points)}"]
    lines.extend(f"{x:g} {y:g}" for x, y in t.points)
    lines.append(f"T {len(t.triangles)}")
    lines.extend(f"{a} {b} {c}" for a, b, c in t.triangles)
    return "\n".join(lines) + "\n"
