"""Property-based invariants over randomized graphs and configurations."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.engine import SimConfig, init, run, step
from patrolsim.graph import Graph, dumps_graph, parse_graph
from patrolsim.metrics import refresh_series
from patrolsim.policies import (PolicyKind, TieBreakSpec, decision_keys,
                                tied_entries)

ALL_POLICIES = tuple(PolicyKind)


def random_connected_graph(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 13)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_degree_sum_and_roundtrip(seed):
    g = random_connected_graph(seed)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    assert parse_graph(dumps_graph(g)) == g


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetry(seed):
    g = random_connected_graph(seed)
    for u in range(g.n):
        for v, eid, _ in g.neighbors(u):
            lo, hi = min(u, v), max(u, v)
            assert g.edges[eid] == (lo, hi)
            assert (u, eid) in [(w, e) for w, e, _ in g.neighbors(v)]


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_adjacency_ascends_by_neighbor_and_edge(seed):
    # the decision kernel reads one adjacency for vertex and edge rules
    g = random_connected_graph(seed)
    for u in range(g.n):
        entries = list(g.neighbors(u))
        assert entries == sorted(entries)
        assert entries == sorted(entries, key=lambda we: we[1])


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_run_deterministic_and_visit_conserving(seed, pol_idx, horizon):
    g = random_connected_graph(seed)
    rng = random.Random(seed ^ 0xABCD)
    starts = tuple(rng.randrange(g.n) for _ in range(rng.randrange(1, 3)))
    cfg = SimConfig(graph=g, policy=ALL_POLICIES[pol_idx], starts=starts,
                    horizon=horizon,
                    tiebreak=TieBreakSpec.seeded_random(seed % 97))
    a, b = run(cfg), run(cfg)
    assert a.events == b.events and a.marks == b.marks
    total = sum(a.vertex_visit_counts)
    assert total == len(a.events) + len(a.marks)
    assert len(a.events) == horizon * len(starts)
    # every move follows an actual edge
    for _, _, u, eid, v in a.events:
        assert g.edges[eid] == (min(u, v), max(u, v))


TIEBREAK_KINDS = ("lowest_id", "seeded_random", "scripted")


def stepping_config(seed, pol_idx, kind, horizon, arrive):
    """A random connected graph with 1-3 robots, some of them arriving
    late.  A scripted tie-break gets 0s and 1s, which every tied set it is
    asked about admits, and more of them than 3 robots read in 60 rounds."""
    g = random_connected_graph(seed)
    rng = random.Random(seed ^ 0x57E9)
    starts = tuple(rng.randrange(g.n) for _ in range(rng.randrange(1, 4)))
    arrivals = ()
    if arrive:
        starts = starts[1:]
        arrivals = tuple((rng.randrange(horizon + 1), rng.randrange(g.n))
                         for _ in range(rng.randrange(1, 3)))
    tiebreak = {
        "lowest_id": TieBreakSpec.lowest_id(),
        "seeded_random": TieBreakSpec.seeded_random(seed % 83),
        "scripted": TieBreakSpec.scripted(
            rng.randrange(2) for _ in range(3 * 60)),
    }[kind]
    return SimConfig(graph=g, policy=ALL_POLICIES[pol_idx], starts=starts,
                     horizon=horizon, tiebreak=tiebreak, arrivals=arrivals)


def state_facts(state):
    return (state.round, list(state.robots), list(state.moves),
            dict(state.arrivals), list(state.vlast), list(state.vcnt),
            list(state.elast), list(state.ecnt), state.tiebreak.unread)


@given(st.integers(0, 10**9), st.integers(0, 4), st.sampled_from(
    TIEBREAK_KINDS), st.integers(0, 40), st.booleans(),
       st.lists(st.integers(0, 40), max_size=6))
@settings(max_examples=80, deadline=None)
def test_multi_round_step_equals_single_steps(seed, pol_idx, kind, horizon,
                                              arrive, cuts):
    cfg = stepping_config(seed, pol_idx, kind, horizon, arrive)
    single = init(cfg)
    for _ in range(horizon):
        step(single)
    # the rounds split at the cuts, repeats giving steps of 0 rounds
    bounds = [0] + sorted(min(c, horizon) for c in cuts) + [horizon]
    multi = init(cfg)
    for lo, hi in zip(bounds, bounds[1:]):
        assert step(multi, hi - lo) is multi
    assert state_facts(multi) == state_facts(single)
    # past the horizon or backwards: rejected before any round is played
    fresh = init(cfg)
    before = state_facts(fresh)
    for bad in (-1, horizon + 1):
        with pytest.raises(ValueError):
            step(fresh, bad)
        assert state_facts(fresh) == before
    with pytest.raises(ValueError, match="horizon"):
        step(single)
    assert state_facts(single) == state_facts(multi)


def run_reading_script(cfg):
    """``run(cfg)``, a scripted tie-break cut to the entries it reads."""
    if cfg.tiebreak.kind == "scripted":
        unread = step(init(cfg), cfg.horizon).tiebreak.unread
        script = cfg.tiebreak.script[:len(cfg.tiebreak.script) - unread]
        cfg = dataclasses.replace(cfg, tiebreak=TieBreakSpec.scripted(script))
    return run(cfg)


@given(st.integers(0, 10**9), st.integers(0, 4), st.sampled_from(
    TIEBREAK_KINDS), st.integers(0, 30), st.integers(1, 30), st.booleans())
@settings(max_examples=60, deadline=None)
def test_shorter_run_is_a_prefix(seed, pol_idx, kind, h1, extra, arrive):
    # robots arrive by h1, so both horizons admit the same robots
    short = stepping_config(seed, pol_idx, kind, h1, arrive)
    long = dataclasses.replace(short, horizon=h1 + extra)
    a, b = run_reading_script(short), run_reading_script(long)
    assert b.events[:len(a.events)] == a.events
    assert all(r > h1 for r, *_ in b.events[len(a.events):])
    assert a.marks == b.marks


def brute_force_refresh(trace, after):
    """round_max, covered, vertex_peak and coverage_time straight from the
    definitions, over each vertex's sorted visit rounds."""
    n, horizon = trace.graph.n, trace.horizon
    visits = [[] for _ in range(n)]
    for r, _, v in trace.marks:
        visits[v].append(r)
    for r, _, _, _, v in trace.events:
        visits[v].append(r)
    round_max, covered = [], []
    for t in range(horizon + 1):
        seen = [[r for r in times if r <= t] for times in visits]
        round_max.append(t - min(max(rs, default=0) for rs in seen))
        covered.append(sum(1 for rs in seen if rs))
    peaks = []
    for times in visits:
        ends = sorted(times) + [horizon]  # the trailing gap ends at horizon
        starts = [0] + sorted(times)      # the first gap starts at round 0
        peaks.append(max((end - start for start, end in zip(starts, ends)
                          if end > after), default=0))
    coverage = next((t for t in range(horizon + 1) if covered[t] == n), None)
    return tuple(round_max), tuple(covered), tuple(peaks), coverage


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 40),
       st.integers(1, 3), st.booleans(), st.integers(-1, 45))
@settings(max_examples=80, deadline=None)
def test_refresh_series_matches_definitions(seed, pol_idx, horizon, robots,
                                            arrive, after):
    g = random_connected_graph(seed)
    rng = random.Random(seed ^ 0x5EED)
    starts = tuple(rng.randrange(g.n) for _ in range(robots))
    arrivals = ()
    if arrive:
        # a late robot; with no starts it is the only one
        starts = starts[1:]
        arrivals = ((rng.randrange(horizon + 1), rng.randrange(g.n)),)
    trace = run(SimConfig(graph=g, policy=ALL_POLICIES[pol_idx],
                          starts=starts, horizon=horizon,
                          tiebreak=TieBreakSpec.seeded_random(seed % 89),
                          arrivals=arrivals))
    series = refresh_series(trace, after)
    assert (series.round_max, series.covered, series.vertex_peak,
            series.coverage_time) == brute_force_refresh(trace, after)


class FlatView:
    """One robot's decision input: the graph, its vertex ``at`` and the
    flat state lists (vlast, vcnt, elast, ecnt), -1 meaning never."""

    def __init__(self, g):
        self.g, self.at = g, 0
        self.state = ([-1] * g.n, [0] * g.n, [-1] * g.m, [0] * g.m)

    def visit(self, v, round_):
        vlast, vcnt, _, _ = self.state
        assert round_ >= vlast[v]  # visit times never decrease
        vlast[v] = round_
        vcnt[v] += 1

    def traverse(self, e, round_):
        _, _, elast, ecnt = self.state
        assert round_ >= elast[e]
        elast[e] = round_
        ecnt[e] += 1

    def tied(self, policy):
        keys, slot = decision_keys(policy, self.g.n, *self.state)
        return tied_entries(self.g.adj[self.at], keys, slot)


def _views_with_histories(seed, shift=0, repeat=1):
    """Two flat views over the same random graph whose visit histories
    differ only by a time shift (for LRV) or a count multiplier (for LFV)."""
    g = random_connected_graph(seed)
    rng = random.Random(seed ^ 0x55AA)
    base, mod = FlatView(g), FlatView(g)
    t = 1
    for v in range(g.n):
        if rng.random() < 0.7:
            base.visit(v, t)
            for r in range(repeat):
                mod.visit(v, t + shift + r)
            t += 1
    for e in range(g.m):
        if rng.random() < 0.7:
            base.traverse(e, t)
            for r in range(repeat):
                mod.traverse(e, t + shift + r)
            t += 1
    base.at = mod.at = rng.randrange(g.n)
    return base, mod


@given(st.integers(0, 10**9), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_lrv_translation_invariance(seed, shift):
    base, shifted = _views_with_histories(seed, shift=shift)
    for pol in (PolicyKind.LRV_V, PolicyKind.LRV_E):
        assert base.tied(pol) == shifted.tied(pol)


@given(st.integers(0, 10**9), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_lfv_scaling_invariance(seed, factor):
    base, scaled = _views_with_histories(seed, repeat=factor)
    for pol in (PolicyKind.LFV_V, PolicyKind.LFV_E):
        assert base.tied(pol) == scaled.tied(pol)


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_decide_pure_and_repeatable(seed):
    base, _ = _views_with_histories(seed)
    for pol in ALL_POLICIES:
        first = base.tied(pol)
        assert base.tied(pol) == first
