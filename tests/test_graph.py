import json

import pytest

from patrolsim.cli import main
from patrolsim.graph import (DisconnectedGraphError, Graph, GraphError,
                             GraphFormatError, check_edge_list, diameter,
                             dumps_graph, parse_graph)
from patrolsim.generators import (cycle, diamond_gadget_chain,
                                  four_cycle_chain, path_dual)


def bfs_all_pairs_diameter(g):
    # independent oracle: plain dict/queue BFS, no shared helpers
    best = 0
    for s in range(g.n):
        dist = {s: 0}
        queue = [s]
        while queue:
            u = queue.pop(0)
            for v, _, _ in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == g.n
        best = max(best, max(dist.values()))
    return best


def test_cycle4_neighbors():
    g = cycle(4)
    # edges sorted lexicographically: (0,1)=e0, (0,3)=e1, (1,2)=e2, (2,3)=e3;
    # arcs numbered in adjacency order, two per vertex
    assert g.neighbors(0) == ((1, 0, 0), (3, 1, 1))
    assert g.neighbors(2) == ((1, 2, 4), (3, 3, 5))


def test_path_interior_neighbors():
    g = path_dual(3)
    assert [v for v, _, _ in g.neighbors(1)] == [0, 2]


def test_four_cycle_chain_connector_degree():
    g = four_cycle_chain(2)
    # exit vertex of the first cycle carries the connector edge
    assert len(g.neighbors(2)) == 3


def test_neighbors_out_of_range():
    with pytest.raises(GraphError):
        cycle(4).neighbors(7)


def test_adjacency_symmetric_with_same_edge_id():
    g = four_cycle_chain(3)
    for u in range(g.n):
        for v, eid, _ in g.neighbors(u):
            assert (u, eid) in [(w, e) for w, e, _ in g.neighbors(v)]
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@pytest.mark.parametrize("g", [cycle(4), path_dual(1), four_cycle_chain(3),
                               diamond_gadget_chain(2)],
                         ids=["cycle4", "path1", "four-cycle-chain3",
                              "diamond-chain2"])
def test_arcs_number_the_adjacency_entries(g):
    # arc ids run over adj in order, adj[v] holds v's edges ascending by
    # neighbor, and arcs[id] reads the entry back as (from, edge, to)
    assert len(g.arcs) == 2 * g.m
    assert [a for v in range(g.n) for _, _, a in g.adj[v]] \
        == list(range(2 * g.m))
    for v in range(g.n):
        assert [(w, eid) for w, eid, _ in g.adj[v]] == sorted(
            (b if a == v else a, eid) for eid, (a, b) in enumerate(g.edges)
            if v in (a, b))
        for w, eid, a in g.adj[v]:
            assert g.arcs[a] == (v, eid, w)


def test_diameter_examples():
    assert diameter(cycle(6)) == 3
    assert diameter(path_dual(5)) == 4
    for k in (2, 3, 4):
        g = four_cycle_chain(k)
        assert diameter(g) == bfs_all_pairs_diameter(g)


def test_diameter_of_no_vertices_is_0():
    assert diameter(Graph(0, [])) == 0


def test_diameter_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        diameter(g)


def test_validate_ok_and_violations():
    assert cycle(4).validate(require_max_deg3=True) == []
    assert any("self-loop" in v for v in check_edge_list(3, [(0, 0), (1, 2)]))
    assert any("parallel" in v for v in check_edge_list(3, [(0, 1), (1, 0)]))
    assert check_edge_list(2, [(0, 5), (0, 1)]) == [
        "edge (0,5) out of range for n=2"]
    assert Graph(4, [(0, 1), (2, 3)]).validate() == [
        "vertex 2 unreachable from 0"]
    bad = check_edge_list(diamond_gadget_chain(2).n,
                          diamond_gadget_chain(2).edges,
                          require_max_deg3=True)
    assert any("degree 4" in v for v in bad)


def test_constructor_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_roundtrip_identity():
    for g in (cycle(4), path_dual(7), four_cycle_chain(3)):
        assert parse_graph(dumps_graph(g)) == g
        assert parse_graph(dumps_graph(g)).meta == g.meta
    assert parse_graph("2 1\n\n0 1\n\n") == Graph(2, [(0, 1)])


def test_graphs_compare_and_hash_by_vertices_and_edges():
    g = Graph(3, [(0, 1), (1, 2)], meta={"name": "p3"})
    assert g == Graph(3, [(0, 1), (1, 2)]) != Graph(3, [(0, 1)])
    assert hash(g) == hash(Graph(3, [(0, 1), (1, 2)]))
    assert g != (3, g.edges)
    assert repr(g) == "Graph(n=3, m=2, meta={'name': 'p3'})"


def test_parse_errors():
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_graph("not a header\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph("4 1\n3 3\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_graph("4 2\n0 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("2 1\n0 5\n")
    with pytest.raises(GraphFormatError):
        parse_graph("4 3\n0 1\n")  # fewer edges than declared


# a malformed graph file: (text, line number, message)
PARSE_ERRORS = [
    ("", 1, "empty file"),
    ("2 x\n0 1\n", 1, "expected integers, got '2 x'"),
    ("-1 0\n", 1, "n and m must be non-negative"),
    ("2 1\n# name\n0 1\n", 2, "expected '# key value', got '# name'"),
    ("3 1\n0 1\n1 2\n", 3, "more edges than declared in header"),
    ("3 1\n0 1 2\n", 2, "expected 'u v', got '0 1 2'"),
    ("3 1\n0 one\n", 2, "expected integers, got '0 one'"),
    ("3 1\n2 1\n", 2, "edge (2,1) not in u < v form"),
    ("3 2\n1 2\n0 1\n", 3, "edge (0,1) out of order"),
]
PARSE_ERROR_IDS = ["empty", "header-not-int", "header-negative",
                   "bad-meta", "extra-edge", "bad-edge-line", "edge-not-int",
                   "edge-reversed", "edge-out-of-order"]


@pytest.mark.parametrize("text,line_no,message", PARSE_ERRORS,
                         ids=PARSE_ERROR_IDS)
def test_parse_error_names_its_line(text, line_no, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("text,line_no,message", PARSE_ERRORS,
                         ids=PARSE_ERROR_IDS)
def test_simulate_graph_file_parse_error_exits_2(tmp_path, capsys, text,
                                                 line_no, message):
    (tmp_path / "g.graph").write_text(text)
    (tmp_path / "s.json").write_text(json.dumps({
        "graph": {"file": str(tmp_path / "g.graph")}, "policy": "lrv-v",
        "robots": {"starts": [0]}, "horizon": 10}))
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: scenario: graph.file: line {line_no}: "
                            f"{message}\n")
    assert not (tmp_path / "o").exists()
