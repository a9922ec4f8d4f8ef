"""Graph families used throughout the test and experiment suites.

The adversarial families target specific policies:

* ``four_cycle_chain`` -- a chain of 4-cycles joined in series; forces
  frequency-based vertex patrolling to re-walk the whole prefix before
  entering the next component, which makes the peak refresh of the last
  component grow quadratically with the chain length.
* ``diamond_gadget_chain`` -- a reconstruction of the classic degree-4
  gadget chain where each gadget offers three left-to-right routes and a
  reflector edge sending roughly a third of traversals back; recency-based
  edge patrolling degrades sharply with chain length.  The exact wiring of
  the original figure is not published as text, so this file documents its
  own wiring: gadget i has terminals a=3i and b=3i+3 and internal vertices
  t=3i+1, u=3i+2 with edges a-t, a-u, t-u, t-b, u-b; consecutive gadgets
  share a terminal.
* ``flower_barrier`` -- a start vertex s with delta-1 staircase paths, each
  carrying a two-petal "flower" at its midpoint that acts as a frequency
  barrier; all staircases meet in a common terminal that is also adjacent
  to s.  Under frequency-based vertex patrolling s accumulates visits much
  faster than the staircase interiors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graph import Graph
from .triangulation import Triangulation


@dataclass(frozen=True)
class FamilySpec:
    """A family and its parameters.  The name may be spelled with ``-`` or
    ``_`` (``four-cycle-chain``), and ``grid`` is short for
    ``grid_triangulation``; ``family`` holds the underscore name."""
    family: str
    params: Mapping[str, int]

    def __post_init__(self):
        family = "grid_triangulation" if self.family == "grid" \
            else self.family.replace("-", "_")
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from "
                             f"{', '.join(FAMILIES)} or grid ('-' may stand "
                             "for '_')")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", dict(self.params))
        required = _FAMILIES[family][1]
        missing = [p for p in required if p not in self.params]
        if missing:
            raise ValueError(f"{family}: missing params {missing}")
        extra = [p for p in self.params if p not in required]
        if extra:
            raise ValueError(f"{family}: unknown params {extra}")
        for name, value in self.params.items():
            if int(value) < 1:
                raise ValueError(f"{family}: param {name} must be >= 1")

    def build(self) -> Graph:
        """The family's graph; for grid_triangulation, its dual graph."""
        built = _FAMILIES[self.family][0](**self.params)
        return built.dual if isinstance(built, Triangulation) else built


def path_dual(n: int) -> Graph:
    """Path on n vertices; the dual of a fan of triangles glued in a strip."""
    if n < 1:
        raise ValueError("path_dual requires n >= 1")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, meta={"family": "path", "n": str(n),
                                 "triangulation_dual": "yes"})


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, meta={"family": "cycle", "n": str(n),
                                 "triangulation_dual": "yes"})


def four_cycle_chain(k: int) -> Graph:
    """k 4-cycles in series: 4k vertices, 5k-1 edges, max degree 3.

    Cycle i occupies vertices 4i..4i+3 (in cycle order 4i, 4i+1, 4i+2,
    4i+3).  The exit vertex 4i+2 of cycle i is joined to the entry vertex
    4(i+1) of cycle i+1.  Vertex 0 is the chain entry.
    """
    if k < 1:
        raise ValueError("four_cycle_chain requires k >= 1")
    edges = []
    for i in range(k):
        b = 4 * i
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b, b + 3)]
        if i + 1 < k:
            edges.append((b + 2, b + 4))
    return Graph(4 * k, edges, meta={"family": "four_cycle_chain",
                                     "k": str(k), "triangulation_dual": "yes"})


def diamond_gadget_chain(k: int) -> Graph:
    """k diamond gadgets in series, consecutive gadgets sharing a terminal.

    3k+1 vertices, 5k edges; every shared terminal has degree 4, so this is
    a general-graph family, not a triangulation dual.  Entry is vertex 0,
    exit is vertex 3k.  See the module docstring for the wiring.
    """
    if k < 1:
        raise ValueError("diamond_gadget_chain requires k >= 1")
    edges = []
    for i in range(k):
        a, t, u, b = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(a, t), (a, u), (t, u), (t, b), (u, b)]
    return Graph(3 * k + 1, edges, meta={"family": "diamond_gadget_chain",
                                         "k": str(k)})


FLOWER_PETALS = 2  # petals per staircase flower; each petal adds 2 vertices


def flower_barrier(delta: int, stair_len: int) -> Graph:
    """Start vertex of degree delta; delta-1 staircases with flower barriers.

    Layout: vertex 0 is the start s, vertex 1 the common terminal t (also
    adjacent to s).  Each of the delta-1 staircases is a path of stair_len
    vertices from s to t, with a two-petal flower (each petal a triangle
    through the barrier vertex) attached at the staircase midpoint.

    Total vertices: 2 + (delta-1) * (stair_len + 2*FLOWER_PETALS).
    """
    if delta < 2:
        raise ValueError("flower_barrier requires delta >= 2")
    if stair_len < 1:
        raise ValueError("flower_barrier requires stair_len >= 1")
    edges = [(0, 1)]
    nxt = 2
    stair_vertices = []
    for _ in range(delta - 1):
        stair = list(range(nxt, nxt + stair_len))
        stair_vertices.extend(stair)
        nxt += stair_len
        edges.append((0, stair[0]))
        edges += [(stair[j], stair[j + 1]) for j in range(stair_len - 1)]
        edges.append((stair[-1], 1))
        barrier = stair[(stair_len - 1) // 2]
        for _ in range(FLOWER_PETALS):
            p, q = nxt, nxt + 1
            nxt += 2
            edges += [(barrier, p), (p, q), (q, barrier)]
    return Graph(nxt, edges, meta={"family": "flower_barrier",
                                   "delta": str(delta),
                                   "stair_len": str(stair_len),
                                   "start": "0", "terminal": "1",
                                   "stair_vertices": ",".join(
                                       str(v) for v in stair_vertices)})


def grid_triangulation(w: int, h: int) -> Triangulation:
    """Unit grid of w x h squares, each split by its main diagonal.

    All diagonals are parallel (from (i,j) to (i+1,j+1)), which keeps the
    construction deterministic and hand-checkable.  The dual graph has
    2*w*h vertices and max degree 3: triangle 2*(j*w+i) is the lower-right
    half of square (i,j) and 2*(j*w+i)+1 the upper-left half.
    """
    if w < 1 or h < 1:
        raise ValueError("grid_triangulation requires w, h >= 1")

    def pid(i: int, j: int) -> int:
        return j * (w + 1) + i

    points = [(float(i), float(j))
              for j in range(h + 1) for i in range(w + 1)]
    triangles = []
    for j in range(h):
        for i in range(w):
            # lower: bottom edge, right edge, diagonal
            triangles.append((pid(i, j), pid(i + 1, j), pid(i + 1, j + 1)))
            # upper: left edge, top edge, diagonal
            triangles.append((pid(i, j), pid(i, j + 1), pid(i + 1, j + 1)))
    tri = Triangulation.build(points, triangles)
    tri.dual.meta.update({"family": "grid_triangulation",
                          "w": str(w), "h": str(h),
                          "triangulation_dual": "yes"})
    return tri


# family -> (its function, parameter names); the function takes exactly these
_FAMILIES = {
    "path": (path_dual, ("n",)),
    "cycle": (cycle, ("n",)),
    "four_cycle_chain": (four_cycle_chain, ("k",)),
    "diamond_gadget_chain": (diamond_gadget_chain, ("k",)),
    "flower_barrier": (flower_barrier, ("delta", "stair_len")),
    "grid_triangulation": (grid_triangulation, ("w", "h")),
}
FAMILIES = tuple(_FAMILIES)
