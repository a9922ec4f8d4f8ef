import itertools
import json

import pytest

from patrolsim.engine import SimConfig, init, run, step
from patrolsim.generators import cycle, four_cycle_chain, path_dual
from patrolsim.graph import Graph
from patrolsim.metrics import vertex_peak_refresh
from patrolsim.policies import (PolicyKind, ScriptChoiceError, TieBreakSpec,
                                tied_entries)


def test_cycle4_lrv_v_counts_and_peaks():
    trace = run(SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V,
                          starts=(0,), horizon=12))
    counts = list(trace.vertex_visit_counts)
    assert counts == [4, 3, 3, 3]  # start marking counts as a visit
    assert vertex_peak_refresh(trace) == [4, 4, 4, 4]


def test_start_marked_at_round_zero():
    cfg = SimConfig(graph=path_dual(3), policy=PolicyKind.LRV_V,
                    starts=(1,), horizon=5)
    state = init(cfg)
    assert state.vlast == [-1, 0, -1]
    assert state.vcnt == [0, 1, 0]
    assert state.robots == [1]
    assert run(cfg).marks == ((0, 0, 1),)


def test_robots_act_in_id_order_on_live_state():
    trace = run(SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V,
                          starts=(0, 0), horizon=1))
    # robot 0 takes the lowest-id neighbor; robot 1 then sees it visited
    assert trace.events == ((1, 0, 0, 0, 1), (1, 1, 0, 1, 3))


def test_every_active_robot_moves_every_round():
    cfg = SimConfig(graph=four_cycle_chain(2), policy=PolicyKind.LFV_E,
                    starts=(0,), horizon=20, arrivals=((5, 4), (12, 7)))
    trace = run(cfg)
    per_round = {}
    for r, *_ in trace.events:
        per_round[r] = per_round.get(r, 0) + 1
    for r in range(1, 21):
        expected = 1 + sum(1 for ar, _ in cfg.arrivals if ar <= r)
        assert per_round[r] == expected


def test_arrival_marks_then_moves_same_round():
    cfg = SimConfig(graph=path_dual(4), policy=PolicyKind.LRV_V,
                    starts=(0,), horizon=6, arrivals=((3, 2),))
    trace = run(cfg)
    assert (3, 1, 2) in trace.marks
    moved = [e for e in trace.events if e[0] == 3 and e[1] == 1]
    assert len(moved) == 1 and moved[0][2] == 2


def test_round_zero_arrival():
    cfg = SimConfig(graph=path_dual(3), policy=PolicyKind.LRV_V,
                    starts=(), horizon=2, arrivals=((0, 1),))
    trace = run(cfg)
    assert trace.marks == ((0, 0, 1),)
    assert len(trace.events) == 2


def test_run_determinism_seeded():
    cfg = SimConfig(graph=four_cycle_chain(3), policy=PolicyKind.RANDOM,
                    starts=(0, 5), horizon=200,
                    tiebreak=TieBreakSpec.seeded_random(11))
    a, b = run(cfg), run(cfg)
    assert a.events == b.events and a.marks == b.marks


def test_step_past_horizon_rejected():
    state = init(SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V,
                           starts=(0,), horizon=1))
    step(state)
    with pytest.raises(ValueError, match="horizon"):
        step(state)


@pytest.mark.parametrize("policy", [PolicyKind.LRV_V, PolicyKind.LRV_E,
                                    PolicyKind.LFV_V, PolicyKind.LFV_E],
                         ids=lambda p: p.value)
def test_three_entries_are_decided_as_the_kernel_decides(policy):
    # step compares a 3-entry adjacency list's keys itself; it must take
    # the entry the kernel's tied set and the tie-break give, and read a
    # script entry only on a tie
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    entries = star.adj[0]
    for keys in itertools.product((-1, 0, 1), repeat=3):
        for index in range(3):
            state = init(SimConfig(graph=star, policy=policy, starts=(0,),
                                   horizon=1,
                                   tiebreak=TieBreakSpec.scripted([index])))
            for entry, key in zip(entries, keys):
                state.keys[entry[state.slot]] = key
            tied = tied_entries(entries, state.keys, state.slot)
            if len(tied) > 1 and index >= len(tied):
                with pytest.raises(ScriptChoiceError) as kernel:
                    TieBreakSpec.scripted([index]).make().choose(len(tied))
                with pytest.raises(ScriptChoiceError) as inline:
                    step(state)
                assert str(inline.value) == str(kernel.value)
                continue
            step(state)
            chosen = tied[index] if len(tied) > 1 else tied[0]
            assert state.moves == [chosen[2]]
            assert state.robots == [chosen[0]]
            assert state.tiebreak.unread == (len(tied) == 1)


def test_config_validation():
    g = cycle(4)
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0,), horizon=-1)
    with pytest.raises(ValueError, match="at least one robot"):
        SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(), horizon=5)
    with pytest.raises(ValueError, match="out of range"):
        SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(9,), horizon=5)
    with pytest.raises(ValueError, match="arrival round"):
        SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0,), horizon=5,
                  arrivals=((9, 1),))


def test_trace_serialization():
    trace = run(SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V,
                          starts=(0,), horizon=3))
    csv = trace.events_csv().splitlines()
    assert csv[0] == "round,robot,from,edge,to"
    assert len(csv) == 4
    summary = json.loads(trace.summary_json())
    assert summary["policy"] == "lrv-v"
    assert summary["robots"] == 1
    assert summary["events"] == 3
    assert sum(summary["vertex_visit_counts"]) == 4
