import dataclasses
import itertools
import json
import os
import random
import re
import signal
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import engine, generators, oracle, verify
from patrolsim.cli import main
from patrolsim.engine import SimConfig, run
from patrolsim.generators import cycle, four_cycle_chain, path_dual
from patrolsim.graph import Graph
from patrolsim.metrics import vertex_peak_refresh
from patrolsim.oracle import exhaustive_tiebreak_search, reference_run
from patrolsim.policies import (PolicyKind, TieBreakSpec, decision_keys,
                                tied_entries)
from test_cli import assert_no_child_left


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


@pytest.mark.parametrize("graph,tiebreak,error", [
    (cycle(4), TieBreakSpec.scripted([]), "script exhausted"),
    (cycle(4), TieBreakSpec.scripted([2]), "script choice out of range"),
    (path_dual(1), TieBreakSpec.lowest_id(), "stranded at isolated vertex"),
], ids=["script-exhausted", "script-choice-out-of-range", "isolated"])
def test_reference_run_fails_where_the_engine_does(graph, tiebreak, error):
    # round 1 from vertex 0: a tie of two the script cannot answer, or no
    # neighbor at all
    cfg = SimConfig(graph=graph, policy=PolicyKind.LRV_V, starts=(0,),
                    horizon=1, tiebreak=tiebreak)
    with pytest.raises(ValueError):
        run(cfg)
    with pytest.raises(ValueError, match=error):
        reference_run(cfg)


def test_diverging_reference_is_a_fail_line(monkeypatch):
    cfg = SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V, starts=(0,),
                    horizon=10)
    monkeypatch.setattr(verify, "_differential_configs",
                        lambda: iter([(7, cfg)]))
    monkeypatch.setattr(verify, "reference_run", lambda cfg: run(
        dataclasses.replace(cfg, starts=(1,))))
    assert verify.criterion_differential().line() == (
        "FAIL differential: case 7: engine and reference diverge (n=4, "
        "policy=lrv-v, horizon=10)")


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


def test_differential_case_that_raises_is_a_fail_line(monkeypatch, capsys):
    # the engine raises on its 50th step, inside one of the randomized
    # configs: that case fails instead of ending the check with a traceback
    steps, step = [], engine.step

    def failing_step(state, rounds=1):
        steps.append(rounds)
        if len(steps) == 50:
            raise IndexError("step 50")
        return step(state, rounds)

    monkeypatch.setattr(engine, "step", failing_step)
    line = verify.criterion_differential().line()
    assert re.fullmatch(r"FAIL differential: case \d+: IndexError: step 50",
                        line)
    steps.clear()
    assert main(["verify", "differential"]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_lrv_worst_case_fails_on_a_diverging_witness(monkeypatch):
    # criterion 5 replays each witness through the engine and the reference
    monkeypatch.setattr(verify, "exhaustive_tiebreak_search",
                        lambda *args: dataclasses.replace(
                            exhaustive_tiebreak_search(*args), peak=0))
    assert verify.criterion_lrv_worst_case().line() == (
        "FAIL lrv-worst-case: k=2: engine, reference and search diverge")

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
    # as the search runs, then storing every branch subtree, so that each
    # repeated state replays its stored count, cut at the budget
    for memo in (oracle.MEMO_MIN_NODES, 1):
        with mock.patch.object(oracle, "MEMO_MIN_NODES", memo):
            for start, horizon, budget, expected in SEARCH_PINS[name,
                                                                policy]:
                res = exhaustive_tiebreak_search(g, pol, start, horizon,
                                                 node_budget=budget)
                assert (res.peak, res.witness, res.complete,
                        res.nodes_explored) == expected, (memo, start,
                                                          horizon, budget)


def test_subtree_table_serves_lfv_and_random_only(monkeypatch):
    # the count is that of whole walks: a split walk classes some frames in
    # a forked child, which this count does not see
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    # storing every branch subtree: a policy that keeps the table classes
    # every frame it pops.  LRV keeps none, and counts its forced tails by
    # their tours instead
    monkeypatch.setattr(oracle, "MEMO_MIN_NODES", 1)
    decision_class, calls = oracle._decision_class, {}

    def counted(keys):
        calls[policy] = calls.get(policy, 0) + 1
        return decision_class(keys)

    monkeypatch.setattr(oracle, "_decision_class", counted)
    for (name, policy), cases in SEARCH_PINS.items():
        g = PIN_GRAPHS[name]()
        for start, horizon, budget, _ in cases:
            exhaustive_tiebreak_search(g, PolicyKind.parse(policy), start,
                                       horizon, node_budget=budget)
    assert calls.keys() == {"lfv-v", "lfv-e", "random"}


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
    expected, rises = naive_search(g, policy, start, horizon, budget)
    # with the table off (no subtree holds more nodes than the budget), then
    # storing every branch subtree
    for memo in (budget + 1, 1):
        scans = []

        def counted_min(values):
            scans.append(None)
            return min(values)

        # the scans of one whole walk: a split walk makes some of them in
        # a forked child, which this count does not see
        with mock.patch.object(oracle, "min", counted_min, create=True), \
                mock.patch.object(oracle, "MEMO_MIN_NODES", memo), \
                mock.patch.dict(os.environ, {"PATROLSIM_WORKERS": "1"}):
            res = exhaustive_tiebreak_search(g, policy, start, horizon,
                                             node_budget=budget)
        assert (res.peak, res.witness, res.complete,
                res.nodes_explored) == expected, memo
        # a leaf scans min(vlast) only where its peak or trailing gap beats
        # the best, which is exactly where the best rises; a replayed
        # subtree's leaves were walked before, so none of them rises
        assert len(scans) == rises, memo


def counted_search(*args, **kwargs):
    """``(exhaustive_tiebreak_search(...), calls of tied_entries)``."""
    calls = [0]
    kernel = oracle.tied_entries

    def counted(*entries):
        calls[0] += 1
        return kernel(*entries)

    with mock.patch.object(oracle, "tied_entries", counted):
        res = exhaustive_tiebreak_search(*args, **kwargs)
    return res, calls[0]


def test_search_replays_repeated_subtrees(monkeypatch):
    # the bound counts the kernel calls of one whole walk: a split walk
    # makes some of them in a forked child, which this count does not see
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    # the budget-capped lfv-v search of the benchmark: most of its million
    # nodes lie in dead subtrees of a decision class it has walked before;
    # the walk without the table calls the kernel at 768,736 of them, and
    # a table of exact states at 182,027
    res, calls = counted_search(four_cycle_chain(5), PolicyKind.LFV_V, 0,
                                200, node_budget=1_000_000)
    assert (res.peak, res.complete, res.nodes_explored) == (95, False,
                                                             1_000_001)
    assert calls < res.nodes_explored // 20


def test_search_counts_forced_lrv_tails_unwalked(monkeypatch):
    # the bound counts the kernel calls of one whole walk: a split walk
    # makes some of them in a forked child, which this count does not see
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    # the benchmark's lrv-e search: few of its subtrees repeat, but most
    # paths end in a forced tail once every edge has been traversed; the
    # walk calls the kernel at 455,429 nodes, and 336,196 with the tails
    # walked until no vertex is stale.  Its 3,200 tails fall into 1,088
    # classes, each a tour of 30 moves; replaying each class's moves from
    # a table took 150,515 calls
    res, calls = counted_search(generators.diamond_gadget_chain(3),
                                PolicyKind.LRV_E, 0, 160,
                                node_budget=3_000_000)
    assert (res.peak, res.complete, res.nodes_explored) == (55, True,
                                                             458_629)
    assert calls <= 77_701


@pytest.mark.parametrize("graph,policy,horizon,budget,expected,bound", [
    # the benchmark's larger lrv-v search: 231,873 of its 262,402 kernel
    # calls fell in forced tails before they were replayed; its 2,048
    # tails fall into 384 classes, each a tour of 34 moves.  Replaying
    # each class's moves from a table took 82,447 calls
    (lambda: four_cycle_chain(6), PolicyKind.LRV_V, 240, 2_000_000,
     (98, True, 399_361), 43_585),
    # 125 of its 129 tails begin with no vertex stale and go straight to
    # the leaf; walking them calls the kernel 3,361 times
    (lambda: generators.grid_triangulation(3, 3).dual, PolicyKind.LRV_V, 40,
     2_000_000, (40, True, 3_940), 2_568),
    # tours of 548-554 moves, too long to store as bytes; replaying each
    # class's moves took 167,042 calls
    (lambda: generators.grid_triangulation(10, 10).dual, PolicyKind.LRV_E,
     10_000, 200_000, (1766, False, 200_001), 17_393),
], ids=["four-cycle-chain", "grid-dual", "grid10-lrv-e"])
def test_search_replays_forced_lrv_tails(monkeypatch, graph, policy, horizon,
                                         budget, expected, bound):
    # the bound counts the kernel calls of one whole walk: a split walk
    # makes some of them in a forked child, which this count does not see
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    res, calls = counted_search(graph(), policy, 0, horizon,
                                node_budget=budget)
    assert (res.peak, res.complete, res.nodes_explored) == expected
    assert calls <= bound


EVERY_BUDGET_TREES = [
    (lambda: four_cycle_chain(2), PolicyKind.LRV_V, 30),
    (lambda: generators.diamond_gadget_chain(1), PolicyKind.LRV_E, 30),
    (lambda: cycle(5), PolicyKind.LRV_V, 20),
    (lambda: four_cycle_chain(2), PolicyKind.LRV_V, 60),
    (lambda: tour_case(1926)[0], PolicyKind.LRV_V, 23),
]
EVERY_BUDGET_IDS = ["four-cycle-chain-lrv-v", "diamond-lrv-e", "cycle-lrv-v",
                    "four-cycle-chain-tours", "tour-case-lrv-v"]


@pytest.mark.parametrize("graph,policy,horizon", EVERY_BUDGET_TREES,
                         ids=EVERY_BUDGET_IDS)
def test_search_matches_naive_recursion_at_every_budget(graph, policy,
                                                        horizon):
    # a budget that runs out inside a forced tail stops the walk where the
    # full walk would, on whichever node it falls.  Tails of the last two
    # searches take the closed form, the second's at both its edges
    g = graph()
    (_, _, _, total), _ = naive_search(g, policy, 0, horizon, 10**6)
    for budget in range(total + 2):
        expected, _ = naive_search(g, policy, 0, horizon, budget)
        res = exhaustive_tiebreak_search(g, policy, 0, horizon,
                                         node_budget=budget)
        assert (res.peak, res.witness, res.complete,
                res.nodes_explored) == expected, budget


def one_walk(g, policy, horizon, budget) -> oracle.WorstCaseResult:
    """The search from vertex 0 in one walk, never split."""
    walk = oracle._tree_walk(g, policy, 0, horizon, budget, 0)
    return oracle._resume(walk, None)[0]


def split_walk(g, policy, horizon, budget, frames) -> tuple:
    """``(result, split)``: the search from vertex 0 split at its
    ``frames``-th branch frame, both parts walked in this process, the
    child's after the parent's, and merged as ``exhaustive_tiebreak_search``
    merges a forked child's report; ``split`` is False where the walk ends
    first."""
    parent = oracle._tree_walk(g, policy, 0, horizon, budget, frames)
    walked = oracle._resume(parent, None)
    if walked is not None:
        return walked[0], False
    res, at, _ = oracle._resume(parent, False)
    if not res.complete:  # the budget ran out in the parent's part
        return res, True
    child = oracle._tree_walk(g, policy, 0, horizon, budget, frames)
    assert oracle._resume(child, None) is None
    # the report crosses the pipe as JSON, which turns tuples into lists
    report = json.loads(json.dumps(oracle._report(
        oracle._resume(child, True))))
    return oracle._merge(res, at, *report, budget), True


@pytest.mark.parametrize("graph,policy,horizon", EVERY_BUDGET_TREES + [
    # an LFV tree that stores every subtree, so that the walk adds stored
    # counts, cut at the budget, on both sides of the split
    (lambda: path_dual(4), PolicyKind.LFV_V, 30),
], ids=EVERY_BUDGET_IDS + ["path-lfv-v-stored"])
def test_split_walk_matches_one_walk_at_every_frame_and_budget(
        graph, policy, horizon):
    # the child of the split gets the later children of the shallowest
    # frame that has one; the frame pushed at the split counts as having
    # its first child taken
    g = graph()
    memo = 1 if policy is PolicyKind.LFV_V else oracle.MEMO_MIN_NODES
    with mock.patch.object(oracle, "MEMO_MIN_NODES", memo):
        total = one_walk(g, policy, horizon, 10**6).nodes_explored
        expected = [one_walk(g, policy, horizon, budget)
                    for budget in range(total + 2)]
        for frames in itertools.count(1):
            split = False
            for budget in range(total + 2):
                res, at_budget = split_walk(g, policy, horizon, budget,
                                            frames)
                assert res == expected[budget], (frames, budget)
                split |= at_budget
            if not split:  # past the walk's last frame
                break
    assert frames > 1


FORKS = pytest.mark.skipif(
    not hasattr(os, "fork") or (os.cpu_count() or 1) < 2,
    reason="a search splits only with os.fork and a second CPU")


def forking_search(monkeypatch) -> tuple[list, list]:
    """Let a search split at its first branch frame, and return the lists
    that each ``os.fork`` and each signal ``os.kill`` sends append to."""
    monkeypatch.delenv("PATROLSIM_WORKERS", raising=False)
    monkeypatch.setattr(oracle, "SPLIT_MIN_FRAMES", 1)
    forks, kills = [], []
    fork, kill = os.fork, os.kill

    def counted_fork():
        forks.append(1)
        return fork()

    def counted_kill(pid, sig):
        kills.append(sig)
        kill(pid, sig)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "kill", counted_kill)
    return forks, kills


# four_cycle_chain(3) from vertex 0 to horizon 120: 3,553 nodes, of which
# the parent's part of a split at the first frame ends at node 1,777
CHAIN = (four_cycle_chain(3), PolicyKind.LRV_V, 120)


def chain_search(budget=2_000_000) -> oracle.WorstCaseResult:
    g, policy, horizon = CHAIN
    return exhaustive_tiebreak_search(g, policy, 0, horizon,
                                      node_budget=budget)


@FORKS
@pytest.mark.parametrize("budget", [2_000_000, 3_000],
                         ids=["complete", "cut-in-the-child"])
def test_forked_search_matches_one_walk(monkeypatch, budget):
    forks, kills = forking_search(monkeypatch)
    res = chain_search(budget)
    assert res == one_walk(*CHAIN, budget)
    assert res.complete == (budget > 3_553)
    assert forks == [1] and kills == []
    assert_no_child_left()


@FORKS
def test_budget_out_in_the_parent_kills_the_child(monkeypatch):
    forks, kills = forking_search(monkeypatch)
    res = chain_search(1_000)
    assert res == one_walk(*CHAIN, 1_000) and not res.complete
    assert forks == [1] and kills == [signal.SIGKILL]
    assert_no_child_left()


@FORKS
def test_exception_in_the_parent_kills_the_child(monkeypatch):
    forks, kills = forking_search(monkeypatch)
    parent, kernel, calls = os.getpid(), oracle.tied_entries, []

    def interrupted(*args):
        if forks and os.getpid() == parent:  # the parent, past the split
            calls.append(1)
            if len(calls) == 100:
                raise KeyboardInterrupt
        return kernel(*args)

    monkeypatch.setattr(oracle, "tied_entries", interrupted)
    with pytest.raises(KeyboardInterrupt):
        chain_search()
    assert forks == [1] and kills == [signal.SIGKILL]
    assert_no_child_left()


@FORKS
def test_killed_child_is_named_by_its_signal(monkeypatch):
    forks, kills = forking_search(monkeypatch)
    monkeypatch.setattr(oracle, "_report", lambda walked: os.kill(
        os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError) as raised:
        chain_search()
    assert str(raised.value) == "search: the second process failed: signal 9"
    assert forks == [1] and kills == []  # reaped, not killed, by the parent
    assert_no_child_left()


@FORKS
def test_failed_fork_raises_and_closes_its_pipe(monkeypatch):
    forking_search(monkeypatch)
    pipes, pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError, match="temporarily unavailable"):
        chain_search()
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):  # closed
            os.fstat(fd)


@FORKS
def test_live_thread_keeps_the_search_in_one_process(monkeypatch):
    forks, _ = forking_search(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        res = chain_search()
    finally:
        release.set()
        thread.join()
    assert res == one_walk(*CHAIN, 2_000_000) and forks == []


def forced_tail_rounds(g, policy, start, horizon):
    """``{(vertex, order): [round, ...]}``: where the keys of an LRV search
    tree first hold no -1, under the order of their indices from the oldest
    round, with the rounds in the order of a depth-first walk.  Plain
    recursion over copied lists, sharing no code with ``oracle``."""
    edges = sorted(tuple(sorted(e)) for e in g.edges)
    nbrs = {v: [] for v in range(g.n)}
    for eid, (u, v) in enumerate(edges):
        nbrs[u].append((v, eid))
        nbrs[v].append((u, eid))
    by_edge = policy is PolicyKind.LRV_E
    rounds = {}

    def visit(pos, t, vlast, elast):
        keys = elast if by_edge else vlast
        if -1 not in keys:
            order = tuple(sorted(range(len(keys)), key=keys.__getitem__))
            rounds.setdefault((pos, order), []).append(t)
        elif t <= horizon:
            scored = [(elast[e] if by_edge else vlast[w], e if by_edge else w,
                       w, e) for w, e in nbrs[pos]]
            lowest = min(scored)[0]
            for _, _, w, e in sorted(x for x in scored if x[0] == lowest):
                vlast2, elast2 = list(vlast), list(elast)
                vlast2[w] = elast2[e] = t
                visit(w, t + 1, vlast2, elast2)

    vlast = [-1] * g.n
    vlast[start] = 0
    visit(start, 1, vlast, [-1] * g.m)
    return rounds


class RecordingPath(bytes):
    """A tour's positions that log the offset of each read."""
    log: list = []

    def __getitem__(self, k):
        self.log.append((id(self), k))
        return super().__getitem__(k)


@pytest.mark.parametrize("graph,policy", [
    (lambda: four_cycle_chain(3), PolicyKind.LRV_V),
    (lambda: generators.diamond_gadget_chain(2), PolicyKind.LRV_E),
], ids=["four-cycle-chain-lrv-v", "diamond-lrv-e"])
def test_search_walks_recurring_tails_as_tours(monkeypatch, graph, policy):
    # the recorder logs the tour reads of one whole walk: a split walk
    # makes some of them in a forked child, which the log does not see
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    g = graph()
    # a tail class recurs at another round, and later at an earlier round
    # than its first, so with more moves to go than that tail walked; at
    # horizon 40 the diamond chain's tails all end before their class
    # recurs
    rounds = forced_tail_rounds(g, policy, 0, 60).values()
    assert any(len(set(r)) > 1 for r in rounds)
    assert any(min(r[1:], default=r[0]) < r[0] for r in rounds)
    expected, _ = naive_search(g, policy, 0, 60, 100_000)
    RecordingPath.log = []
    tour = oracle._tour

    def recording(path, n):
        path, firsts, cmax = tour(path, n)
        return RecordingPath(path), firsts, cmax

    with mock.patch.object(oracle, "_tour", recording):
        res = exhaustive_tiebreak_search(g, policy, 0, 60,
                                         node_budget=100_000)
    assert (res.peak, res.witness, res.complete,
            res.nodes_explored) == expected
    # a tour is walked from its start after the walk that proved it, and
    # again by a later tail of its class, which reads it from the table
    # and calls no kernel
    starts = [path for path, k in RecordingPath.log if k == 0]
    assert max(map(starts.count, starts)) > 1


def tour_case(case):
    """``(graph, policy, horizon)`` of seeded case ``case``: a random
    spanning tree on 3-7 vertices plus up to 2n random edges, LRV_V or
    LRV_E, horizon 20-79, small enough for ``naive_search``."""
    rng = random.Random(7000 + case)
    n = rng.randrange(3, 8)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n + 1)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return (Graph(n, sorted(edges)),
            rng.choice((PolicyKind.LRV_V, PolicyKind.LRV_E)),
            rng.randrange(20, 80))


def tour_rule_edges(g, policy, start, horizon, budget):
    """``(result, edges)``: the search's result, and the edges of the tour
    rules that the tails given to ``_tour_peak`` met, for tours that visit
    every vertex:

    - "closed": the closed form fires;
    - "closed at p": ... with ``cutoff == first + p``;
    - "moves below p": ``cutoff == first + p - 1``, so the tail moves;
    - "closed at horizon": the closed form fires with
      ``cutoff + p - 1 == horizon``;
    - "moves past horizon": ``cutoff + p - 1 == horizon + 1`` and
      ``cutoff >= first + p``, so the tail moves."""
    edges = set()
    tour_peak = oracle._tour_peak

    def recording(tour, first, vlast, peak, stale, cutoff, horizon):
        path, firsts, _ = tour
        p = len(path)
        closed = first + p <= cutoff <= horizon - p + 1
        edges.update(name for name, met in (
            ("closed", closed),
            ("closed at p", closed and cutoff == first + p),
            ("moves below p", cutoff == first + p - 1
             and cutoff <= horizon - p + 1),
            ("closed at horizon", closed and cutoff == horizon - p + 1),
            ("moves past horizon", first + p <= cutoff
             and cutoff == horizon - p + 2),
        ) if met and firsts is not None)
        return tour_peak(tour, first, vlast, peak, stale, cutoff, horizon)

    with mock.patch.object(oracle, "_tour_peak", recording):
        res = exhaustive_tiebreak_search(g, policy, start, horizon,
                                         node_budget=budget)
    return (res.peak, res.witness, res.complete, res.nodes_explored), edges


@pytest.mark.parametrize("edge,case", [
    ("closed", 1926), ("closed at p", 439), ("moves below p", 636),
    ("closed at horizon", 1926), ("moves past horizon", 2338),
])
def test_tour_rules_match_naive_recursion_at_their_edges(edge, case):
    # a tail of a stored tour takes the closed form only where every
    # vertex is stale until first + p and then seen again by the horizon;
    # elsewhere it moves
    g, policy, horizon = tour_case(case)
    expected, _ = naive_search(g, policy, 0, horizon, 20_000)
    for memo in (oracle.MEMO_MIN_NODES, 1):
        with mock.patch.object(oracle, "MEMO_MIN_NODES", memo):
            res, edges = tour_rule_edges(g, policy, 0, horizon, 20_000)
        assert res == expected, memo
        assert edge in edges, memo


def test_search_stores_moves_from_a_vertex_of_degree_above_256():
    # a path 0..299 and a hub 300 joined to all of it: from 299 the first
    # branch walks the path down to 0 and then to the hub, where every
    # vertex has been seen and a forced tail leaves the hub along its
    # 300th arc, to 299
    n = 300
    g = Graph(n + 1, [(v, v + 1) for v in range(n - 1)]
              + [(v, n) for v in range(n)])
    assert g.degree(n) == n
    expected, _ = naive_search(g, PolicyKind.LRV_V, n - 1, n + 20, 3_000)
    res = exhaustive_tiebreak_search(g, PolicyKind.LRV_V, n - 1, n + 20,
                                     node_budget=3_000)
    assert (res.peak, res.witness, res.complete,
            res.nodes_explored) == expected


@pytest.mark.parametrize("edges,policy,start,horizon", [
    # LFV keys that rank alike but differ by more than a bump: a class of
    # dense ranks replays a subtree of another shape
    ([(0, 1), (0, 5), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (2, 7),
      (5, 7)], PolicyKind.LFV_V, 3, 29),
    # every vertex seen since the cutoff while an edge is still untraversed:
    # its -1 keys still tie, so the rest of the path is not forced
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
      (2, 4), (3, 6), (4, 5), (4, 7), (6, 7)], PolicyKind.LRV_E, 7, 32),
], ids=["lfv-class-not-ranks", "lrv-tail-needs-every-key"])
def test_search_skips_only_exact_subtrees(edges, policy, start, horizon):
    g = Graph(8, edges)
    expected, _ = naive_search(g, policy, start, horizon, 100_000)
    for memo in (oracle.MEMO_MIN_NODES, 1):
        with mock.patch.object(oracle, "MEMO_MIN_NODES", memo):
            res = exhaustive_tiebreak_search(g, policy, start, horizon,
                                             node_budget=100_000)
        assert (res.peak, res.witness, res.complete,
                res.nodes_explored) == expected, memo


def long_search_case(case):
    """``(graph, policy, start, horizon, budget)`` of seeded case ``case``:
    a random spanning tree on 3-9 vertices plus up to 3n random edges,
    horizon 16-34 and a budget of 2k or 20k nodes, long enough to fill the
    table.  Every other case is LRV_E, whose tail is forced only once
    every edge has been traversed; the rest take LRV_V, LFV_V and LFV_E in
    turn."""
    rng = random.Random(20261020 + case)
    n = rng.randrange(3, 10)
    label = list(range(n))
    rng.shuffle(label)
    edges = {tuple(sorted((label[v], label[rng.randrange(v)])))
             for v in range(1, n)}
    for _ in range(rng.randrange(3 * n + 1)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    policy = (PolicyKind.LRV_E if case % 2 == 0 else
              (PolicyKind.LRV_V, PolicyKind.LFV_V, PolicyKind.LFV_E)[
                  case // 2 % 3])
    return (Graph(n, sorted(edges)), policy, rng.randrange(n),
            rng.randrange(16, 35), rng.choice((2_000, 20_000)))


@pytest.mark.parametrize("case", range(12))
def test_long_searches_match_naive_recursion(case):
    g, policy, start, horizon, budget = long_search_case(case)
    expected, _ = naive_search(g, policy, start, horizon, budget)
    for memo in (oracle.MEMO_MIN_NODES, 1):
        with mock.patch.object(oracle, "MEMO_MIN_NODES", memo):
            res = exhaustive_tiebreak_search(g, policy, start, horizon,
                                             node_budget=budget)
        assert (res.peak, res.witness, res.complete,
                res.nodes_explored) == expected, memo


def _tour_order(keys):
    # the class of a forced LRV tail's keys that ``tours`` is keyed on: the
    # indices of the keys from the oldest round on
    return tuple(sorted(range(len(keys)), key=keys.__getitem__))


@pytest.mark.parametrize("bump", [False, True], ids=["lrv", "lfv"])
def test_decision_class_decides_ties_after_each_move(bump):
    # the class lemmas behind the two tables: key lists of one class give
    # the same tied set from any entries, and the chosen move keeps them in
    # one class.  LFV counts are classed by _decision_class, the subtree
    # table's key, under a bump; a forced tail's distinct LRV rounds (no
    # -1) by their order, the tours' key, under a stamp above every key.
    # Each pair is a key list and its image under a strictly increasing
    # map, a shift or new gaps
    rng = random.Random(20261021)
    decision_class = oracle._decision_class if bump else _tour_order
    pairs = 0
    for _ in range(1000):
        if bump:
            keys = [rng.randint(0, 12) for _ in range(rng.randint(1, 8))]
        else:
            keys = rng.sample(range(13), rng.randint(1, 8))
        values = sorted(set(keys))
        shift = rng.random() < 0.5
        image = [rng.randint(0, 12)]
        for a, b in zip(values, values[1:]):
            image.append(image[-1] + (b - a if shift else rng.randint(1, 4)))
        to = dict(zip(values, image))
        other = [to[k] for k in keys]
        if decision_class(keys) != decision_class(other):
            continue
        pairs += 1
        for _ in range(rng.randint(1, 6)):
            entries = [(i, i, 0) for i in rng.sample(
                range(len(keys)), rng.randint(1, min(4, len(keys))))]
            tied = tied_entries(entries, keys, 0)
            assert tied_entries(entries, other, 0) == tied
            i = rng.choice(tied)[0]
            if bump:
                keys[i] += 1
                other[i] += 1
            else:
                keys[i] = max(keys) + rng.randint(1, 3)
                other[i] = max(other) + rng.randint(1, 3)
            assert decision_class(keys) == decision_class(other)
    assert pairs >= 400


def test_distinct_lrv_keys_never_tie_again():
    # the tail lemma behind the forced LRV tails: one robot's LRV keys
    # with no -1 are distinct, and a stamp keeps them so, so every tied
    # set on the rest of the path has one entry, whatever choices came
    # before
    rng = random.Random(20261022)
    reached = 0
    for case in range(200):
        g, _, start, _, _ = long_search_case(case)
        policy = (PolicyKind.LRV_V, PolicyKind.LRV_E)[case % 2]
        vlast, elast = [-1] * g.n, [-1] * g.m
        vlast[start] = 0
        keys, slot = decision_keys(policy, g.n, vlast, [0] * g.n, elast,
                                   [0] * g.m)
        pos = start
        for t in range(1, 81):
            tied = tied_entries(g.adj[pos], keys, slot)
            if -1 not in keys:
                assert len(set(keys)) == len(keys) and len(tied) == 1
            pos, eid, _ = rng.choice(tied)
            vlast[pos] = elast[eid] = t
        reached += -1 not in keys
    assert reached >= 100


def test_forced_lrv_walk_repeats_its_tour():
    # the tour lemma behind the tours: once one robot's LRV keys hold no
    # -1, a walk whose vertex and order of keys recur after p moves
    # repeats those p moves from then on.  Plain walks over the edge list,
    # sharing no code with ``oracle``
    rng = random.Random(20261023)
    tours = 0
    for case in range(200):
        g, _, start, _, _ = long_search_case(case)
        by_edge = case % 2 == 0
        edges = sorted(tuple(sorted(e)) for e in g.edges)
        nbrs = {v: [] for v in range(g.n)}
        for eid, (u, v) in enumerate(edges):
            nbrs[u].append((v, eid))
            nbrs[v].append((u, eid))
        vlast, elast = [-1] * g.n, [-1] * g.m
        vlast[start] = 0
        keys = elast if by_edge else vlast
        pos, path, seen, p = start, [], {}, None
        for t in range(1, 2_000):
            scored = sorted((keys[e] if by_edge else keys[w], w, e)
                            for w, e in nbrs[pos])
            tied = [x for x in scored if x[0] == scored[0][0]]
            _, pos, eid = rng.choice(tied)
            vlast[pos] = elast[eid] = t
            path.append(pos)
            if p is None and -1 not in keys:
                key = (pos, tuple(sorted(range(len(keys)),
                                         key=keys.__getitem__)))
                if key in seen:
                    p, home = t - seen[key], t
                seen.setdefault(key, t)
            if p is not None and t == home + 3 * p:
                break
        if p is not None:
            tours += 1
            assert all(path[k] == path[k - p] for k in range(home, t))
    assert tours >= 150


def test_tour_lists_first_visits_and_the_longest_gap_around():
    rng = random.Random(20261024)
    for _ in range(500):
        n = rng.randint(1, 6)
        p = rng.choice((rng.randint(1, 12), rng.randint(250, 260)))
        path = [rng.randrange(n) for _ in range(p)]
        stored, firsts, cmax = oracle._tour(path, n)
        offsets = {v: [j for j, x in enumerate(path, 1) if x == v]
                   for v in range(n)}
        # each gap to the next visit, the last one's across the tour's end
        gaps = [b - a for at in offsets.values() if at
                for a, b in zip(at, at[1:] + [at[0] + p])]
        assert list(stored) == path
        everywhere = all(offsets.values())
        assert (firsts is not None) == everywhere
        if everywhere:
            assert list(firsts) == [at[0] for at in offsets.values()]
        assert cmax == max(gaps)
        # bytes while every offset and vertex fits in one
        assert isinstance(stored, bytes) == (p <= 255)
    # vertex 1 returns after 2 moves, and 0 and 2 after a tour of 4
    assert oracle._tour([1, 0, 1, 2], 3) == (bytes([1, 0, 1, 2]),
                                               bytes([2, 1, 4]), 4)


def plain_tour_walk(path, first, vlast, peak, cutoff, horizon):
    """``(peak, stale, vlast)`` where a walk of ``path`` over and over from
    round ``first`` on stops: with no vertex last seen before ``cutoff``,
    or at the horizon."""
    vlast = list(vlast)
    stale = {v for v, last in enumerate(vlast) if last < cutoff}
    for k, t in enumerate(range(first + 1, horizon + 1)):
        if not stale:
            break
        v = path[k % len(path)]
        peak = max(peak, t - vlast[v])
        vlast[v] = t
        if t >= cutoff:
            stale.discard(v)
    return peak, len(stale), vlast


def test_tour_peak_matches_a_walk_of_the_tour():
    # the exactness of the closed form and of the stop at first + 2p: for
    # any tour and any state before it, the peak where the walk stops, and
    # vlast too where a vertex is stale at the horizon
    rng = random.Random(20261025)
    rules = set()
    for _ in range(4000):
        n = rng.randint(1, 6)
        p = rng.randint(1, 12)
        path = [rng.randrange(n) for _ in range(p)]
        first = rng.randint(0, 30)
        vlast = [rng.randint(0, first) for _ in range(n)]
        cutoff = rng.randint(1, first + 3 * p + 5)
        horizon = rng.randint(first, first + 4 * p + 5)
        stale = sum(last < cutoff for last in vlast)
        if not stale:
            continue
        peak = rng.randint(0, first + 1)
        expected = plain_tour_walk(path, first, vlast, peak, cutoff, horizon)
        tour = oracle._tour(path, n)
        got = oracle._tour_peak(tour, first, vlast, peak, stale, cutoff,
                                horizon)
        assert got == expected[:2]
        if got[1]:
            assert vlast == expected[2]
        if tour[1] is not None:
            rules.add("closed" if first + 2 * p <= cutoff <= horizon - p + 1
                      else "moves")
    assert rules == {"closed", "moves"}


def test_search_snapshot_memory_is_bounded(monkeypatch):
    # the bound is that of one whole walk: tracemalloc does not see the
    # memory of a forked child, nor a parent whose child walks a part
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
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


@pytest.mark.parametrize("policy,horizon,budget,bound", [
    (PolicyKind.LFV_E, 2_000, 5_000, 5_300_000),  # measured 3.81 MB
    (PolicyKind.LRV_V, 2_000, 5_000, 270_000),    # measured 0.21 MB
    # measured 0.32 MB; storing every tail's moves, 0.48 MB
    (PolicyKind.LRV_V, 5_000, 200_000, 400_000),
], ids=["lfv-e", "lrv-v", "lrv-v-h5000"])
def test_long_horizon_search_memory_is_bounded(monkeypatch, policy, horizon,
                                               budget, bound):
    # the bound is that of one whole walk: tracemalloc does not see the
    # memory of a forked child, nor a parent whose child walks a part
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    # each branch frame on the path copies vlast and the key list: on the
    # grid(10,10) dual lfv-e ties at hundreds of a path's 2,000 rounds and
    # lrv-v at tens.  Only tails whose class recurs store their tour
    g = generators.grid_triangulation(10, 10).dual
    tracemalloc.start()
    try:
        res = exhaustive_tiebreak_search(g, policy, 0, horizon,
                                         node_budget=budget)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.complete and res.peak >= 0  # past the first leaf
    assert traced_peak < bound
