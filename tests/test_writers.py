"""The output writers against the row formulas they replaced: ``events.csv``
as one ``%d`` format per event, ``metrics.csv`` as one f-string per round.
A trace keeps one arc id per move, so the arrival rounds that fix each
move's round and robot are checked against the reference simulator."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolsim import engine
from patrolsim.engine import SimConfig, run, run_series
from patrolsim.generators import cycle
from patrolsim.metrics import RefreshSeries, metrics_csv, refresh_series
from patrolsim.oracle import reference_run
from patrolsim.policies import PolicyKind, TieBreakSpec
from test_properties import random_connected_graph
from test_stream import random_config


def reference_events_csv(trace) -> str:
    return "round,robot,from,edge,to\n" + "".join(
        "%d,%d,%d,%d,%d\n" % e for e in trace.events)


def reference_metrics_csv(series) -> str:
    n = len(series.vertex_peak)
    lines = ["round,max_refresh,coverage_fraction"]
    lines.extend(f"{t},{mr},{c / n:.6f}" for t, (mr, c)
                 in enumerate(zip(series.round_max, series.covered)))
    return "\n".join(lines) + "\n"


def assert_writers_match(trace) -> None:
    assert trace.events_csv() == reference_events_csv(trace)


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 40),
       st.integers(1, 3), st.booleans(), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_events_writers_equal_reference(seed, pol_idx, horizon, robots,
                                        arrive, chunk):
    # small chunks start and end inside rounds
    cfg = random_config(seed, pol_idx, horizon, robots, arrive,
                        TieBreakSpec.seeded_random(seed % 89))
    with mock.patch.object(engine, "EVENTS_CHUNK", chunk):
        assert_writers_match(run(cfg))


@pytest.mark.parametrize("robots,horizon,arrival", [
    (1, 0, 0), (12, 0, 0), (12, 50, 25), (4, 3_000, 1_500), (1, 5, 1),
    (3, 50, 50), (4, 2_048, 0)],
    ids=["horizon-0", "horizon-0-12-robots", "robot-ids-past-n-and-m",
         "past-one-chunk", "no-robot-until-round-1", "arrival-at-horizon",
         "exactly-one-chunk"])
def test_events_writers_on_cycle3(robots, horizon, arrival):
    # one robot of each run arrives in round ``arrival``.  cycle(3) has
    # n = m = 3, so 12 robots number past both tables; 4 robots for 3,000
    # rounds make 10,501 events, one chunk and part of the next, and for
    # 2,048 rounds exactly one chunk
    cfg = SimConfig(graph=cycle(3), policy=PolicyKind.LFV_E,
                    starts=tuple(i % 3 for i in range(robots - 1)),
                    arrivals=((arrival, 2),), horizon=horizon,
                    tiebreak=TieBreakSpec.seeded_random(robots))
    trace = run(cfg)
    if horizon == 50:
        assert max(e[1] for e in trace.events) == robots - 1
    if horizon == 3_000:
        assert engine.EVENTS_CHUNK < len(trace.events) \
            < 2 * engine.EVENTS_CHUNK
    if horizon == 2_048:
        assert len(trace.events) == engine.EVENTS_CHUNK
    assert trace.events == reference_run(cfg).events
    assert_writers_match(trace)
    assert refresh_series(trace) == run_series(cfg)


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 30),
       st.integers(0, 2), st.lists(st.integers(0, 3), min_size=1, max_size=6),
       st.integers(1, 7))
@example(seed=5, pol_idx=0, horizon=9, starts=0, slots=[1, 1, 0], chunk=2)
@settings(max_examples=150, deadline=None)
def test_arrival_rounds_equal_reference(seed, pol_idx, horizon, starts,
                                        slots, chunk):
    # arrivals at up to three late rounds and at the horizon (slot 0); a
    # slot drawn twice brings robots in together, and with no starts the
    # rounds before the first arrival have no moves
    g = random_connected_graph(seed)
    rng = random.Random(seed)
    rounds = [horizon] + [rng.randint(min(1, horizon), horizon)
                          for _ in range(3)]
    cfg = SimConfig(graph=g, policy=tuple(PolicyKind)[pol_idx],
                    starts=tuple(rng.randrange(g.n) for _ in range(starts)),
                    arrivals=tuple((rounds[s], rng.randrange(g.n))
                                   for s in slots),
                    horizon=horizon, tiebreak=TieBreakSpec.seeded_random(seed))
    trace, ref = run(cfg), reference_run(cfg)
    assert trace.events == ref.events
    with mock.patch.object(engine, "EVENTS_CHUNK", chunk):
        assert trace.events_csv() == reference_events_csv(ref)
    assert refresh_series(trace) == run_series(cfg)


def test_metrics_csv_equals_reference():
    # every covered count from 0 to n, for n in 1..300
    rng = random.Random(7)
    for n in range(1, 301):
        covered = tuple(range(n + 1))
        series = RefreshSeries(
            round_max=tuple(rng.randrange(3 * n) for _ in covered),
            covered=covered, vertex_peak=(0,) * n, coverage_time=n)
        assert metrics_csv(series) == reference_metrics_csv(series)
