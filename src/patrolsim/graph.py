"""Undirected simple graphs with dense ids, and their text format."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class GraphError(ValueError):
    """Structurally invalid graph data."""


class GraphFormatError(ValueError):
    """Malformed graph text file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DisconnectedGraphError(ValueError):
    """Raised by operations that require a connected graph."""


def check_edge_list(n: int, edges: Sequence[tuple[int, int]],
                    require_max_deg3: bool = False) -> list[str]:
    """Return every structural violation in (n, edges); empty list means ok.

    Checks simplicity (no self-loops, no parallel edges), id ranges and,
    optionally, the maximum-degree-3 constraint of triangulation duals.
    Violations are data, not faults, so nothing is raised here.
    """
    violations = []
    seen = set()
    degree = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            violations.append(f"edge ({u},{v}) out of range for n={n}")
            continue
        if u == v:
            violations.append(f"self-loop at {u}")
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            violations.append(f"parallel edge ({key[0]},{key[1]})")
            continue
        seen.add(key)
        degree[u] += 1
        degree[v] += 1
    if require_max_deg3:
        for v, d in enumerate(degree):
            if d > 3:
                violations.append(f"degree {d} > 3 at vertex {v}")
    return violations


class Graph:
    """Immutable simple undirected graph.

    Vertex ids are 0..n-1.  Edges are canonicalized to (u, v) with u < v and
    sorted lexicographically; edge ids are positions in that order.  The
    canonical order makes every downstream iteration (and hence every
    lowest-id tie-break) reproducible regardless of input edge order.

    ``adj[v]`` lists the entries ``(neighbor, edge id, arc id)`` of v,
    ascending by neighbor.  Each entry is also a directed edge, an arc,
    numbered in ``adj`` order: ``arcs[a]`` is ``(from, edge id, to)``.
    """

    __slots__ = ("n", "edges", "adj", "arcs", "meta")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 meta: Mapping[str, str] | None = None):
        edges = [tuple(e) for e in edges]
        violations = check_edge_list(n, edges)
        if violations:
            raise GraphError("; ".join(violations))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(
            sorted((u, v) if u < v else (v, u) for u, v in edges))
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(self.edges):
            incident[u].append((v, eid))
            incident[v].append((u, eid))
        pairs = tuple(tuple(sorted(entries)) for entries in incident)
        adj: list[tuple[tuple[int, int, int], ...]] = []
        arcs: list[tuple[int, int, int]] = []
        for v, entries in enumerate(pairs):
            adj.append(tuple((w, eid, len(arcs) + i)
                             for i, (w, eid) in enumerate(entries)))
            arcs.extend((v, eid, w) for w, eid in entries)
        self.arcs = tuple(arcs)
        self.adj = tuple(adj)
        self.meta: dict[str, str] = dict(meta or {})

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[tuple[int, int, int], ...]:
        """Adjacency entries (neighbor, edge id, arc id) of v, ascending by
        neighbor."""
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def validate(self, require_max_deg3: bool = False) -> list[str]:
        """Structural violations, including connectivity."""
        violations = check_edge_list(self.n, self.edges, require_max_deg3)
        if self.n > 0:
            reached = _bfs_distances(self, 0)
            for v, dist in enumerate(reached):
                if dist < 0:
                    violations.append(f"vertex {v} unreachable from 0")
                    break
        return violations

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, meta={self.meta!r})"


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _, _ in g.adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(g: Graph) -> int:
    """Max shortest-path hop distance, by BFS from every vertex."""
    if g.n == 0:
        return 0
    best = 0
    for s in range(g.n):
        dist = _bfs_distances(g, s)
        for v, d in enumerate(dist):
            if d < 0:
                raise DisconnectedGraphError(
                    f"vertex {v} unreachable from {s}")
        best = max(best, max(dist))
    return best


# --- text format -------------------------------------------------------
#
# line 1:        "n m"
# next m lines:  "u v"  with u < v, ascending lexicographic order
# trailing:      "# key value" metadata lines

def dumps_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    for key in sorted(g.meta):
        lines.append(f"# {key} {g.meta[key]}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(1, f"expected integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(1, "n and m must be non-negative")
    edges = []
    meta: dict[str, str] = {}
    prev: tuple[int, int] | None = None
    for idx, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise GraphFormatError(idx, f"expected '# key value', got {line!r}")
            meta[parts[0]] = parts[1]
            continue
        if len(edges) >= m:
            raise GraphFormatError(idx, "more edges than declared in header")
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(idx, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(idx, f"expected integers, got {line!r}") from None
        if u == v:
            raise GraphFormatError(idx, f"self-loop at {u}")
        if u > v:
            raise GraphFormatError(idx, f"edge ({u},{v}) not in u < v form")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(idx, f"edge ({u},{v}) out of range for n={n}")
        if prev is not None and (u, v) <= prev:
            if (u, v) == prev:
                raise GraphFormatError(idx, f"duplicate edge ({u},{v})")
            raise GraphFormatError(idx, f"edge ({u},{v}) out of order")
        prev = (u, v)
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(len(lines), f"declared {m} edges, found {len(edges)}")
    return Graph(n, edges, meta)


def save_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_graph(g))


def load_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())
