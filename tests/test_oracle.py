import dataclasses
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import engine, generators, oracle, verify
from patrolsim.engine import SimConfig, run
from patrolsim.generators import cycle, four_cycle_chain, path_dual
from patrolsim.graph import Graph
from patrolsim.metrics import vertex_peak_refresh
from patrolsim.oracle import exhaustive_tiebreak_search, reference_run
from patrolsim.policies import PolicyKind, TieBreakSpec


def test_cycle4_worst_case_is_tour():
    res = exhaustive_tiebreak_search(cycle(4), PolicyKind.LRV_V, 0, 40)
    assert res.complete
    assert res.peak == 4


def test_path3_worst_peaks_by_policy():
    expected = {PolicyKind.LRV_V: 4, PolicyKind.LRV_E: 4,
                PolicyKind.LFV_V: 6, PolicyKind.LFV_E: 4}
    for pol, peak in expected.items():
        res = exhaustive_tiebreak_search(path_dual(3), pol, 0, 60)
        assert res.complete
        assert res.peak == peak, pol


def test_witness_replays_through_engine():
    g = four_cycle_chain(2)
    res = exhaustive_tiebreak_search(g, PolicyKind.LRV_V, 0, 80)
    assert res.complete
    trace = run(SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0,),
                          horizon=80,
                          tiebreak=TieBreakSpec.scripted(res.witness)))
    assert max(vertex_peak_refresh(trace)) == res.peak


def test_worst_at_least_lowest_id():
    g = four_cycle_chain(2)
    res = exhaustive_tiebreak_search(g, PolicyKind.LRV_V, 0, 200,
                                     node_budget=5_000_000)
    default = run(SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0,),
                            horizon=200))
    assert res.peak >= max(vertex_peak_refresh(default))


def test_budget_exhaustion_is_lower_bound():
    g = four_cycle_chain(3)
    small = exhaustive_tiebreak_search(g, PolicyKind.LRV_V, 0, 120,
                                       node_budget=500)
    assert not small.complete
    full = exhaustive_tiebreak_search(g, PolicyKind.LRV_V, 0, 120)
    assert full.complete
    assert small.peak <= full.peak


def test_search_input_validation():
    with pytest.raises(ValueError, match="out of range"):
        exhaustive_tiebreak_search(cycle(4), PolicyKind.LRV_V, 9, 10)


def assert_engine_matches_reference(cfg):
    trace = run(cfg)
    ref = reference_run(cfg)
    assert trace.events == ref.events
    assert trace.marks == ref.marks
    assert trace.vertex_visit_counts == ref.vertex_visit_counts
    assert trace.edge_traversal_counts == ref.edge_traversal_counts


def test_reference_matches_engine_spot_check():
    assert_engine_matches_reference(SimConfig(
        graph=four_cycle_chain(3), policy=PolicyKind.LFV_E,
        starts=(0, 7), horizon=150,
        tiebreak=TieBreakSpec.seeded_random(5),
        arrivals=((10, 3),)))


@pytest.mark.parametrize("chunk", [3, 8192])
def test_reference_matches_engine_on_placements_and_chunk_seams(chunk):
    # arrivals at round 0 (placed after the starts), two in one round and
    # one at the horizon, given out of order; a 3-move chunk puts seams
    # inside the rounds between arrivals
    cfg = SimConfig(graph=four_cycle_chain(3), policy=PolicyKind.LRV_V,
                    starts=(0, 7), horizon=40,
                    tiebreak=TieBreakSpec.seeded_random(2),
                    arrivals=((17, 5), (40, 1), (0, 9), (17, 2)))
    with mock.patch.object(engine, "EVENTS_CHUNK", chunk):
        assert_engine_matches_reference(cfg)
    assert run(cfg).marks == ((0, 0, 0), (0, 1, 7), (0, 2, 9), (17, 3, 5),
                              (17, 4, 2), (40, 5, 1))


def test_long_differential_cases_cut_the_rounds_between_arrivals():
    # criterion 9 catches a walker that misplaces a chunk seam only where
    # a seam falls between two arrivals: a chunk that places no robot
    long = [cfg for case, cfg in verify._differential_configs()
            if case >= 500]
    cut = [cfg for cfg in long
           if any(not placed for first, *_, placed in engine._chunks(cfg)
                  if first > 1)]
    assert len(long) == 12 and len(cut) >= 10
    assert all(len(run(cfg).moves) > engine.EVENTS_CHUNK for cfg in long)


def test_witness_cases_replay_complete_searches_with_ties():
    # criterion 9 replays each witness as a script: a witness with no
    # choice would read no script entry and check nothing of the replay
    for name, g, policy, horizon in verify._witness_cases():
        res = exhaustive_tiebreak_search(g, policy, 0, horizon)
        assert res.complete and res.witness, name


@pytest.mark.parametrize("search,detail", [
    (lambda *args: [][0],
     "IndexError: list index out of range"),
    (lambda *args: dataclasses.replace(
        exhaustive_tiebreak_search(*args), peak=0),
     "engine, reference and search diverge"),
], ids=["search-raises", "peak-differs"])
def test_witness_replay_failure_is_a_fail_line(monkeypatch, search, detail):
    # only the witness cases run; a side that raises fails its case
    # instead of ending the check with a traceback
    monkeypatch.setattr(verify, "_differential_configs", lambda: iter(()))
    monkeypatch.setattr(verify, "exhaustive_tiebreak_search", search)
    assert verify.criterion_differential().line() == (
        "FAIL differential: four_cycle_chain(2) lrv-v witness at horizon 80: "
        + detail)


# (peak, witness, complete, nodes explored) of the search from the far end
# of four_cycle_chain(3), horizon 60, 50k-node budget, as the recursive
# search reported them
WITNESS_SEARCHES = {
    PolicyKind.LRV_V: (22, (0, 1, 0, 1, 0), True, 1248),
    PolicyKind.LRV_E: (24, (1, 1, 0, 1, 0), True, 1633),
    PolicyKind.LFV_V: (48, (0,) * 19 + (1, 1, 2) + (0,) * 9, False, 50001),
    PolicyKind.LFV_E: (46, (0,) * 11 + (1, 2, 0, 0, 1, 1, 0, 1, 0), False,
                       50001),
}


@pytest.mark.parametrize("policy", list(WITNESS_SEARCHES),
                         ids=lambda p: p.value)
def test_reference_matches_engine_on_witness(policy):
    # a scripted tie-break drives the engine through tied sets the
    # lowest_id and seeded_random cases of criterion 9 never choose from
    g = four_cycle_chain(3)
    start = g.n - 1
    res = exhaustive_tiebreak_search(g, policy, start, 60, node_budget=50_000)
    assert (res.peak, res.witness, res.complete,
            res.nodes_explored) == WITNESS_SEARCHES[policy]
    assert_engine_matches_reference(SimConfig(
        graph=g, policy=policy, starts=(start,), horizon=60,
        tiebreak=TieBreakSpec.scripted(res.witness)))


def test_search_without_recursion_limit():
    # the search depth equals the horizon; 3000 is past the default
    # recursion limit of 1000
    res = exhaustive_tiebreak_search(cycle(5), PolicyKind.LRV_V, 0, 3000)
    assert res.complete
    assert res.peak == 5
    assert res.witness == (0,)
    assert res.nodes_explored == 6001


PIN_GRAPHS = {
    "path_dual(4)": lambda: path_dual(4),
    "cycle(5)": lambda: cycle(5),
    "four_cycle_chain(2)": lambda: four_cycle_chain(2),
    "diamond_gadget_chain(1)": lambda: generators.diamond_gadget_chain(1),
    "flower_barrier(2,1)": lambda: generators.flower_barrier(2, 1),
    "grid(2,1).dual": lambda: generators.grid_triangulation(2, 1).dual,
}


def _search_pins():
    """``{(graph, policy): [(start, horizon, budget, expected)]}`` from
    ``search_pins.txt``: every family, all five policies, both chain ends,
    horizons 0, 1, 7 and 40 and budgets 1, 5, 100 and 10**6, as the search
    reported them when it pushed a frame at every node.  Budgets 1 and 5
    stop inside a forced chain.  At budget 10**6 and horizon 40 the file
    keeps one budget-capped search; the other capped ones take seconds
    each."""
    pins = {}
    for line in Path(__file__).with_name("search_pins.txt").read_text() \
            .splitlines():
        if line.startswith("#"):
            continue
        name, pol, start, horizon, budget, peak, witness, complete, nodes = \
            line.split()
        expected = (int(peak),
                    () if witness == "-" else tuple(map(int, witness)),
                    complete == "1", int(nodes))
        pins.setdefault((name, pol), []).append(
            (int(start), int(horizon), int(budget), expected))
    return pins


SEARCH_PINS = _search_pins()


@pytest.mark.parametrize("name,policy", list(SEARCH_PINS),
                         ids=lambda x: x)
def test_search_matches_pins(name, policy):
    g = PIN_GRAPHS[name]()
    pol = PolicyKind.parse(policy)
    for start, horizon, budget, expected in SEARCH_PINS[name, policy]:
        res = exhaustive_tiebreak_search(g, pol, start, horizon,
                                         node_budget=budget)
        assert (res.peak, res.witness, res.complete,
                res.nodes_explored) == expected, (start, horizon, budget)


def test_search_rejects_negative_horizon_and_budget():
    with pytest.raises(ValueError, match="horizon"):
        exhaustive_tiebreak_search(cycle(4), PolicyKind.LRV_V, 0, -1)
    with pytest.raises(ValueError, match="node_budget"):
        exhaustive_tiebreak_search(cycle(4), PolicyKind.LRV_V, 0, 10,
                                   node_budget=-5)
    res = exhaustive_tiebreak_search(cycle(4), PolicyKind.LRV_V, 0, 10,
                                     node_budget=0)
    assert (res.peak, res.witness, res.complete,
            res.nodes_explored) == (-1, (), False, 1)


def naive_search(g, policy, start, horizon, budget):
    """``((peak, witness, complete, nodes_explored), rises)`` by plain
    recursion over copied state lists, sharing no code with ``oracle``.
    ``rises`` counts the leaves that raised the best peak."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    nbrs = {v: [] for v in range(g.n)}
    for eid, (u, v) in enumerate(edges):
        nbrs[u].append((v, eid))
        nbrs[v].append((u, eid))
    for v in nbrs:
        nbrs[v].sort()
    found = {"peak": -1, "witness": (), "rises": 0, "nodes": 0,
            "stopped": False}

    def key(state, w, eid):
        vlast, vcnt, elast, ecnt = state
        return {PolicyKind.LRV_V: vlast[w], PolicyKind.LFV_V: vcnt[w],
                PolicyKind.LRV_E: elast[eid], PolicyKind.LFV_E: ecnt[eid],
                PolicyKind.RANDOM: 0}[policy]

    def visit(pos, t, peak, state, choices):
        found["nodes"] += 1
        if found["nodes"] > budget:
            found["stopped"] = True
            return
        if t > horizon:
            trailing = max(horizon - max(x, 0) for x in state[0])
            if max(peak, trailing) > found["peak"]:
                found.update(peak=max(peak, trailing), witness=choices)
                found["rises"] += 1
            return
        scored = [(key(state, w, eid), w, eid) for w, eid in nbrs[pos]]
        lowest = min(s for s, _, _ in scored)
        tied = [(w, eid) for s, w, eid in scored if s == lowest]
        if policy in (PolicyKind.LRV_E, PolicyKind.LFV_E):
            tied.sort(key=lambda we: we[1])
        for i, (w, eid) in enumerate(tied):
            vlast, vcnt, elast, ecnt = (list(x) for x in state)
            gap = t - max(vlast[w], 0)
            vlast[w], elast[eid] = t, t
            vcnt[w] += 1
            ecnt[eid] += 1
            visit(w, t + 1, max(peak, gap), (vlast, vcnt, elast, ecnt),
                  choices + ((i,) if len(tied) > 1 else ()))
            if found["stopped"]:
                return

    vlast, vcnt = [-1] * g.n, [0] * g.n
    vlast[start], vcnt[start] = 0, 1
    visit(start, 1, 0, (vlast, vcnt, [-1] * g.m, [0] * g.m), ())
    return ((found["peak"], found["witness"], not found["stopped"],
             found["nodes"]), found["rises"])


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..8 vertices plus random extra edges,
    under a random labelling."""
    n = draw(st.integers(2, 8))
    label = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for v in range(n) for u in range(v)
              if (u, v) not in edges]
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=6)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@given(connected_graphs(), st.sampled_from(list(PolicyKind)), st.data(),
       st.integers(0, 10), st.integers(0, 50) | st.integers(0, 2_000))
@settings(max_examples=200, deadline=None)
def test_search_matches_naive_recursion(g, policy, data, horizon, budget):
    # budgets run from inside forced chains and past a best peak's rises to
    # beyond the whole tree
    start = data.draw(st.integers(0, g.n - 1))
    scans = []

    def counted_min(values):
        scans.append(None)
        return min(values)

    with mock.patch.object(oracle, "min", counted_min, create=True):
        res = exhaustive_tiebreak_search(g, policy, start, horizon,
                                         node_budget=budget)
    expected, rises = naive_search(g, policy, start, horizon, budget)
    assert (res.peak, res.witness, res.complete,
            res.nodes_explored) == expected
    # a leaf scans min(vlast) only where its peak or trailing gap beats the
    # best, which is exactly where the best rises
    assert len(scans) == rises


def test_search_snapshot_memory_is_bounded():
    # every node of a RANDOM search on a degree-3 graph is a branch point,
    # so the path keeps up to a horizon's worth of vlast copies
    g = generators.grid_triangulation(5, 5).dual
    tracemalloc.start()
    try:
        res = exhaustive_tiebreak_search(g, PolicyKind.RANDOM, 0, 2_000,
                                         node_budget=20_000)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.complete
    assert traced_peak < 3_000_000


@pytest.mark.parametrize("policy,bound", [
    (PolicyKind.LFV_E, 5_300_000),  # measured 3.77 MB
    (PolicyKind.LRV_V, 270_000),    # measured 0.19 MB
], ids=["lfv-e", "lrv-v"])
def test_long_horizon_search_memory_is_bounded(policy, bound):
    # each branch frame on the path copies vlast and the key list: on the
    # grid(10,10) dual lfv-e ties at hundreds of a path's 2,000 rounds and
    # lrv-v at tens
    g = generators.grid_triangulation(10, 10).dual
    tracemalloc.start()
    try:
        res = exhaustive_tiebreak_search(g, policy, 0, 2_000,
                                         node_budget=5_000)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.complete and res.peak >= 0  # past the first leaf
    assert traced_peak < bound
