import pytest

from patrolsim.generators import (FAMILIES, FamilySpec, cycle,
                                  diamond_gadget_chain, flower_barrier,
                                  four_cycle_chain, grid_triangulation,
                                  path_dual)
from patrolsim.graph import diameter


def test_family_spec_validation():
    assert FamilySpec("cycle", {"n": 5}).build().n == 5
    assert FamilySpec("four-cycle-chain", {"k": 2}).family \
        == "four_cycle_chain"
    assert FamilySpec("grid", {"w": 1, "h": 1}).family == "grid_triangulation"
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("torus", {"n": 5})
    with pytest.raises(ValueError, match="missing params"):
        FamilySpec("grid_triangulation", {"w": 3})
    with pytest.raises(ValueError, match="unknown params"):
        FamilySpec("path", {"n": 3, "k": 1})
    with pytest.raises(ValueError, match=">= 1"):
        FamilySpec("path", {"n": 0})


def test_all_families_buildable():
    params = {"path": {"n": 6}, "cycle": {"n": 6},
              "four_cycle_chain": {"k": 3}, "diamond_gadget_chain": {"k": 3},
              "flower_barrier": {"delta": 3, "stair_len": 4},
              "grid_triangulation": {"w": 3, "h": 2}}
    for family in FAMILIES:
        g = FamilySpec(family, params[family]).build()
        assert g.validate() == []


def test_four_cycle_chain_shape():
    g = four_cycle_chain(4)
    assert (g.n, g.m) == (16, 19)
    deg3 = [v for v in range(g.n) if g.degree(v) == 3]
    assert len(deg3) == 6
    assert g.max_degree() == 3
    assert four_cycle_chain(2).n == 8
    # connector joins exit 2 to entry 4
    assert (2, 4) in four_cycle_chain(2).edges
    assert [v for v in range(8) if four_cycle_chain(2).degree(v) == 3] == [2, 4]


def test_four_cycle_chain_diameters():
    assert diameter(four_cycle_chain(2)) == 5
    assert diameter(four_cycle_chain(3)) == 8


def test_diamond_gadget_chain_shape():
    g = diamond_gadget_chain(3)
    assert (g.n, g.m) == (10, 15)
    assert g.max_degree() == 4
    # shared terminals 3 and 6 have degree 4, end terminals degree 2
    assert g.degree(0) == 2 and g.degree(9) == 2
    assert g.degree(3) == 4 and g.degree(6) == 4
    assert g.validate() == []


def test_flower_barrier_shape():
    g = flower_barrier(3, 4)
    assert (g.n, g.m) == (18, 23)
    assert g.degree(0) == 3  # start: terminal plus delta-1 staircases
    assert g.meta["start"] == "0" and g.meta["terminal"] == "1"
    stairs = [int(v) for v in g.meta["stair_vertices"].split(",")]
    assert len(stairs) == 2 * 4
    assert g.validate() == []


def test_flower_barrier_vertex_count_formula():
    for delta in (2, 3, 4):
        for stair_len in (1, 4, 7):
            g = flower_barrier(delta, stair_len)
            assert g.n == 2 + (delta - 1) * (stair_len + 4)


def test_grid_triangulation_shape():
    tri = grid_triangulation(2, 2)
    g = tri.dual
    assert (g.n, g.m) == (8, 8)
    assert sorted(g.degree(v) for v in range(g.n)) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert diameter(g) == 5
    assert g.max_degree() <= 3


def test_grid_2x1_dual_is_path():
    g = grid_triangulation(2, 1).dual
    assert g.edges == ((0, 1), (0, 3), (2, 3))


def test_grid_10x10_dual_size():
    g = grid_triangulation(10, 10).dual
    assert (g.n, g.m) == (200, 280)
    assert diameter(g) == 37


def test_generator_bad_params():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path_dual(0)
    with pytest.raises(ValueError):
        flower_barrier(1, 4)
    with pytest.raises(ValueError):
        grid_triangulation(0, 3)
    with pytest.raises(ValueError, match="four_cycle_chain requires k >= 1"):
        four_cycle_chain(0)
    with pytest.raises(ValueError,
                       match="diamond_gadget_chain requires k >= 1"):
        diamond_gadget_chain(0)
    with pytest.raises(ValueError, match="requires stair_len >= 1"):
        flower_barrier(3, 0)
