import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.engine import SimConfig, run
from patrolsim.generators import cycle, path_dual
from patrolsim.graph import Graph
from patrolsim.policies import (IsolatedVertexError, PolicyKind,
                                ScriptChoiceError, ScriptExhaustedError,
                                ScriptUnusedError, TieBreakSpec,
                                decision_keys, tied_entries)


def flat_state(g, vmarks=(), emarks=()):
    """(vlast, vcnt, elast, ecnt) after marking (element, round) pairs."""
    vlast, vcnt = [-1] * g.n, [0] * g.n
    elast, ecnt = [-1] * g.m, [0] * g.m
    for v, r in vmarks:
        vlast[v] = r
        vcnt[v] += 1
    for e, r in emarks:
        elast[e] = r
        ecnt[e] += 1
    return vlast, vcnt, elast, ecnt


def tied_at(g, policy, at, state):
    keys, slot = decision_keys(policy, g.n, *state)
    return tied_entries(g.adj[at], keys, slot)


def tied_on_cycle4(policy, at=0, vmarks=(), emarks=()):
    g = cycle(4)
    return tied_at(g, policy, at, flat_state(g, vmarks, emarks))


def first_move(policy, tiebreak, g=None, horizon=1):
    """The events of a one-robot run from vertex 0 (cycle(4) by default)."""
    return run(SimConfig(graph=g or cycle(4), policy=policy, starts=(0,),
                         horizon=horizon, tiebreak=tiebreak)).events


def test_policy_parse():
    assert PolicyKind.parse("LRV_V") is PolicyKind.LRV_V
    assert PolicyKind.parse("lfv-e") is PolicyKind.LFV_E
    with pytest.raises(ValueError):
        PolicyKind.parse("greedy")


def test_lrv_v_prefers_unvisited():
    # from vertex 0 on cycle(4): neighbor 1 visited, neighbor 3 never
    assert tied_on_cycle4(PolicyKind.LRV_V, vmarks=[(1, 1)]) == [(3, 1, 1)]


def test_lrv_v_older_visit_wins():
    assert tied_on_cycle4(PolicyKind.LRV_V,
                          vmarks=[(1, 1), (3, 2)]) == [(1, 0, 0)]


def test_lfv_v_minimum_count():
    assert tied_on_cycle4(PolicyKind.LFV_V,
                          vmarks=[(1, 1), (1, 2), (3, 2)]) == [(3, 1, 1)]


def test_edge_policies_order_ties_by_edge_id():
    # vertex 2 on cycle(4) has edges e2 (to 1, arc 4) and e3 (to 3, arc 5),
    # both fresh
    assert tied_on_cycle4(PolicyKind.LRV_E, at=2) == [(1, 2, 4), (3, 3, 5)]
    assert tied_on_cycle4(PolicyKind.LFV_E, at=2) == [(1, 2, 4), (3, 3, 5)]


def test_lrv_e_prefers_untraversed():
    assert tied_on_cycle4(PolicyKind.LRV_E, at=2,
                          emarks=[(2, 1)]) == [(3, 3, 5)]


def test_random_policy_ties_everything():
    assert tied_on_cycle4(PolicyKind.RANDOM,
                          vmarks=[(1, 1)]) == [(1, 0, 0), (3, 1, 1)]


def test_isolated_vertex():
    g = Graph(2, [], )
    assert tied_at(g, PolicyKind.LRV_V, 0, flat_state(g)) == []
    with pytest.raises(IsolatedVertexError):
        run(SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0,),
                      horizon=1))


def test_decide_lowest_id():
    assert first_move(PolicyKind.LRV_V,
                      TieBreakSpec.lowest_id()) == ((1, 0, 0, 0, 1),)


def test_decide_seeded_reproducible():
    picks_a = [first_move(PolicyKind.RANDOM, TieBreakSpec.seeded_random(7))
               for _ in range(10)]
    picks_b = [first_move(PolicyKind.RANDOM, TieBreakSpec.seeded_random(7))
               for _ in range(10)]
    assert picks_a == picks_b


def test_scripted_consumption_and_errors():
    # the first move from vertex 0 on cycle(4) is a two-way tie
    assert first_move(PolicyKind.LRV_V,
                      TieBreakSpec.scripted([1])) == ((1, 0, 0, 1, 3),)
    # under RANDOM every move is a tie, so the second one finds no entry
    with pytest.raises(ScriptExhaustedError):
        first_move(PolicyKind.RANDOM, TieBreakSpec.scripted([1]), horizon=2)
    with pytest.raises(ScriptChoiceError):
        first_move(PolicyKind.LRV_V, TieBreakSpec.scripted([5]))
    tb = TieBreakSpec.scripted([1]).make()
    assert tb.choose(2) == 1
    with pytest.raises(ScriptExhaustedError):
        tb.choose(2)


def test_unread_script_entries_rejected():
    # one tie in one round reads one entry; the second is left over
    with pytest.raises(ScriptUnusedError, match="1 script choices"):
        first_move(PolicyKind.LRV_V, TieBreakSpec.scripted([1, 0]))
    assert TieBreakSpec.scripted([1, 0]).make().unread == 2


def test_singleton_tie_does_not_consume_script():
    # forced move: path end vertex has exactly one neighbor
    events = first_move(PolicyKind.LRV_V, TieBreakSpec.scripted([]),
                        g=path_dual(3))  # would raise if consulted
    assert events == ((1, 0, 0, 0, 1),)


def test_decide_is_pure():
    g = cycle(4)
    state = flat_state(g, vmarks=[(1, 1)])
    before = [list(keys) for keys in state]
    entries = g.adj[0]
    tied_at(g, PolicyKind.LFV_V, 0, state)
    assert [list(keys) for keys in state] == before
    assert g.adj[0] is entries and entries == ((1, 0, 0), (3, 1, 1))


@pytest.mark.parametrize("shape", [2, 3], ids=["adj", "out"])
@pytest.mark.parametrize("slot", [0, 1])
def test_tied_entries_equals_naive_minimum(slot, shape):
    # every assignment of keys from {-1, 0, 1} to 0-5 entries: the
    # straight-line paths for 2 and 3 entries and the loop must all keep
    # exactly the least-key entries in their given order.  Graph.adj's
    # entries are triples; pairs show that the kernel reads only the slot
    for k in range(6):
        # entry i reads keys[i] through the slot; its other field reads a
        # distinct key above all of them, so reading the wrong slot shows
        off = [10 - i for i in range(k)]
        entries = tuple(((i, k + i) if slot == 0 else (k + i, i))
                        + (100 + i,) * (shape - 2) for i in range(k))
        for assignment in itertools.product((-1, 0, 1), repeat=k):
            keys = list(assignment) + off
            naive = [e for e in entries
                     if keys[e[slot]] == min(keys[x[slot]] for x in entries)]
            tied = tied_entries(entries, keys, slot)
            assert tied == naive, (entries, keys, slot)
            # a search frame keeps its tied set while later calls run
            again = tied_entries(entries, keys, slot)
            assert type(tied) is list and tied is not again
            assert keys == list(assignment) + off


def test_tiebreak_spec_unknown_kind():
    with pytest.raises(ValueError):
        TieBreakSpec("coinflip").make()


def test_seeded_random_spec_without_seed_is_rejected():
    # Random(None) would draw from the OS: a run would not repeat
    with pytest.raises(ValueError, match="needs a seed"):
        TieBreakSpec("seeded_random").make()


@given(st.integers(0, 2**64),
       st.lists(st.one_of(st.integers(1, 9),
                          st.integers(2**32 + 1, 2**32 + 2**20)),
                max_size=60))
@settings(max_examples=200, deadline=None)
def test_seeded_random_draws_as_randrange(seed, sizes):
    # the engine's tie draws must stay the differential oracle's
    # randrange draws, on every supported interpreter
    resolver = TieBreakSpec.seeded_random(seed).make()
    rng = random.Random(seed)
    assert [resolver.choose(k) for k in sizes] \
        == [rng.randrange(k) for k in sizes]
