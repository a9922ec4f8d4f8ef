import pytest

from patrolsim.generators import grid_triangulation
from patrolsim.triangulation import Triangulation, TriangulationError


def square_pair():
    # unit square split by the main diagonal
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    triangles = [(0, 1, 3), (0, 2, 3)]
    return Triangulation.build(points, triangles)


def test_dual_of_two_triangles_is_single_edge():
    t = square_pair()
    assert t.dual.n == 2 and t.dual.m == 1
    assert t.dual.edges == ((0, 1),)
    assert t.shared_primal_edge == ((0, 3),)


def test_primal_adjacency():
    t = square_pair()
    assert t.primal_adjacent(0, 3)
    assert t.primal_adjacent(3, 0)
    assert not t.primal_adjacent(1, 2)


def test_dual_max_degree_three():
    for w, h in ((1, 1), (3, 2), (5, 5)):
        t = grid_triangulation(w, h)
        assert t.dual.n == 2 * w * h
        assert t.dual.max_degree() <= 3


def test_build_rejects_degenerate():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(TriangulationError, match="degenerate"):
        Triangulation.build(pts, [(0, 0, 1)])
    with pytest.raises(TriangulationError, match="out of range"):
        Triangulation.build(pts, [(0, 1, 5)])
    with pytest.raises(TriangulationError, match="duplicate"):
        Triangulation.build(pts, [(0, 1, 2), (2, 1, 0)])


def test_build_rejects_overshared_edge():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0)]
    tris = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(TriangulationError, match="shared by 3"):
        Triangulation.build(pts, tris)

