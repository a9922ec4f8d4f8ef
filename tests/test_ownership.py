import math

from patrolsim.generators import grid_triangulation
from patrolsim.ownership import (OwnerMap, assign_owners, verify_theorem1,
                                 verify_theorem2)
from patrolsim.triangulation import Triangulation


def test_single_square_owners():
    t = grid_triangulation(1, 1)
    result = assign_owners(t)
    assert isinstance(result, OwnerMap)
    # lower triangle owned by corner 0, upper by the diagonally opposite 3;
    # the two owners sit on the shared diagonal and are primal-adjacent
    assert result.triangle_owner == (0, 3)
    assert verify_theorem1(t, result) == []


def test_owner_is_a_corner():
    t = grid_triangulation(4, 3)
    result = assign_owners(t)
    assert isinstance(result, OwnerMap)
    for ti, owner in enumerate(result.triangle_owner):
        assert owner in t.triangles[ti]


def test_grids_feasible_with_connected_owners():
    for w, h in ((2, 2), (3, 5), (6, 6)):
        t = grid_triangulation(w, h)
        result = assign_owners(t)
        assert isinstance(result, OwnerMap)
        assert verify_theorem1(t, result) == []
        report = verify_theorem2(t, result)
        assert report.violations == ()
        assert report.max_dual_edges_owned <= report.bound


def test_dual_edge_ownership_constant_on_grids():
    counts = set()
    for w in (4, 6, 8):
        t = grid_triangulation(w, w)
        result = assign_owners(t)
        counts.add(verify_theorem2(t, result).max_dual_edges_owned)
    assert counts == {6}


def test_assign_owners_without_recursion_limit():
    # 1800 triangles, deeper than Python's default recursion limit
    t = grid_triangulation(30, 30)
    result = assign_owners(t)
    assert isinstance(result, OwnerMap)
    assert verify_theorem1(t, result) == []
    report = verify_theorem2(t, result)
    assert report.violations == ()
    assert report.max_dual_edges_owned == 6


def test_theorem2_flags_corrupted_map():
    # a wheel of 20 triangles around hub 0, all given to the hub: the
    # owners are connected (equal), but the hub owns all 20 dual edges
    spokes = 20
    points = [(0.0, 0.0)] + [(math.cos(2 * math.pi * i / spokes),
                               math.sin(2 * math.pi * i / spokes))
                              for i in range(spokes)]
    t = Triangulation.build(points, [(0, 1 + i, 1 + (i + 1) % spokes)
                                     for i in range(spokes)])
    hub = OwnerMap(triangle_owner=(0,) * spokes)
    assert verify_theorem1(t, hub) == []
    report = verify_theorem2(t, hub)
    assert report.max_dual_edges_owned == spokes > report.bound
    assert report.violations == (0,)
