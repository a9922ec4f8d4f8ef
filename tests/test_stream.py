"""The metrics-only run and the refresh meter against a recorded trace, and
the files ``simulate`` writes against ``Trace``'s own outputs."""

import contextlib
import io
import json
import os
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import cli, engine
from patrolsim.engine import SimConfig, run, run_series
from patrolsim.graph import dumps_graph
from patrolsim.metrics import RefreshMeter, metrics_csv, refresh_series
from patrolsim.generators import cycle, grid_triangulation
from patrolsim.policies import PolicyKind, ScriptUnusedError, TieBreakSpec
from test_cli import forking
from test_properties import random_connected_graph

ALL_POLICIES = tuple(PolicyKind)


def random_config(seed, pol_idx, horizon, robots, arrive, tiebreak):
    """1-3 robots on a random connected graph, one of them arriving late."""
    g = random_connected_graph(seed)
    rng = random.Random(seed ^ 0x57EA)
    starts = tuple(rng.randrange(g.n) for _ in range(robots))
    arrivals = ()
    if arrive:
        starts = starts[1:]
        arrivals = ((rng.randrange(horizon + 1), rng.randrange(g.n)),)
    return SimConfig(graph=g, policy=ALL_POLICIES[pol_idx], starts=starts,
                     horizon=horizon, tiebreak=tiebreak, arrivals=arrivals)


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 40),
       st.integers(1, 3), st.booleans(), st.integers(-1, 45),
       st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_run_series_equals_replayed_trace(seed, pol_idx, horizon, robots,
                                          arrive, after, chunk):
    # a small chunk: run_series steps and feeds its meter many times a run
    cfg = random_config(seed, pol_idx, horizon, robots, arrive,
                        TieBreakSpec.seeded_random(seed % 89))
    with mock.patch.object(engine, "EVENTS_CHUNK", chunk):
        series = run_series(cfg, after)
    assert series == refresh_series(run(cfg), after)


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 40),
       st.integers(1, 3), st.booleans(), st.integers(-1, 45))
@settings(max_examples=60, deadline=None)
def test_meter_fed_in_pieces_equals_one_pass(seed, pol_idx, horizon, robots,
                                             arrive, after):
    # a round's visits in any order, cut into feeds at random points, some
    # of them inside a round
    cfg = random_config(seed, pol_idx, horizon, robots, arrive,
                        TieBreakSpec.seeded_random(seed % 89))
    trace = run(cfg)
    rng = random.Random(seed)
    rounds = [[] for _ in range(horizon + 1)]
    for t, _, v in trace.marks:
        rounds[t].append(v)
    for t, _, _, _, v in trace.events:
        rounds[t].append(v)
    stream = []
    for visits in rounds:
        rng.shuffle(visits)
        stream += visits + [RefreshMeter.CLOSE]
    cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(3))
    meter = RefreshMeter(cfg.graph, after)
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        meter.feed(stream[lo:hi])
    assert meter.series() == refresh_series(trace, after)


def test_run_series_rejects_unread_script_entries():
    # one tie in one round reads one entry; the second is left over
    cfg = SimConfig(graph=cycle(4), policy=PolicyKind.LRV_V, starts=(0,),
                    horizon=1, tiebreak=TieBreakSpec.scripted([1, 0]))
    with pytest.raises(ScriptUnusedError, match="1 script choices"):
        run_series(cfg)


def simulated_outputs(cfg, tiebreak, directory: Path) -> dict[str, bytes]:
    """``patrolsim simulate`` on ``cfg``: the files it writes and its
    stdout."""
    directory.mkdir(exist_ok=True)
    (directory / "g.graph").write_text(dumps_graph(cfg.graph))
    scenario = {"graph": {"file": str(directory / "g.graph")},
                "policy": cfg.policy.value, "tiebreak": tiebreak,
                "robots": {"starts": list(cfg.starts),
                           "arrivals": [list(a) for a in cfg.arrivals]},
                "horizon": cfg.horizon}
    (directory / "s.json").write_text(json.dumps(scenario))
    with contextlib.redirect_stdout(stdout := io.StringIO()):
        assert cli.main(["simulate", "--scenario", str(directory / "s.json"),
                         "--out-dir", str(directory / "out")]) == 0
    return {"stdout": stdout.getvalue().encode(),
            **{name: (directory / "out" / name).read_bytes()
               for name in ("events.csv", "metrics.csv", "summary.json")}}


def recorded_outputs(cfg) -> dict[str, bytes]:
    """The outputs as built from a whole recorded trace."""
    trace = run(cfg)
    series = refresh_series(trace)
    peak = max(series.vertex_peak, default=0)
    summary = trace.summary_json(seed=0, peak_refresh=peak,
                                 coverage_time=series.coverage_time)
    return {"stdout": f"peak_refresh={peak} coverage_time="
                      f"{series.coverage_time}\n".encode(),
            "events.csv": trace.events_csv().encode(),
            "metrics.csv": metrics_csv(series).encode(),
            "summary.json": summary.encode()}


TIEBREAKS = {"lowest_id": ("lowest_id", TieBreakSpec.lowest_id()),
             "seeded_random": ({"kind": "seeded_random", "seed": 5},
                               TieBreakSpec.seeded_random(5))}


@given(st.integers(0, 10**9), st.integers(0, 4), st.integers(0, 13),
       st.integers(1, 3), st.booleans(), st.sampled_from(sorted(TIEBREAKS)))
@settings(max_examples=30, deadline=None)
def test_simulate_files_equal_recorded_outputs(seed, pol_idx, horizon,
                                               robots, arrive, kind):
    raw, spec = TIEBREAKS[kind]
    cfg = random_config(seed, pol_idx, horizon, robots, arrive, spec)
    with tempfile.TemporaryDirectory() as tmp:
        assert simulated_outputs(cfg, raw, Path(tmp)) \
            == recorded_outputs(cfg)


def test_simulate_past_one_chunk_of_events(tmp_path):
    # 3 robots for 3,000 rounds: 9,000 events fill one chunk and part of
    # the next
    cfg = random_config(7, 3, 3_000, 3, False, TieBreakSpec.seeded_random(5))
    assert engine.EVENTS_CHUNK < 9_000 < 2 * engine.EVENTS_CHUNK
    assert simulated_outputs(cfg, TIEBREAKS["seeded_random"][0], tmp_path) \
        == recorded_outputs(cfg)


# (events chunk, grid size, policy, tie-break, starts, arrivals, horizon)
# on the grid(w, w) dual.  The first two put arrivals on the seams of the
# run without them: two robots walk 4-round chunks, and three 2-round ones.
# The last is 8 robots in 1,024-round chunks, a ninth arriving at the
# first seam.
SEAMS = [
    (8, 3, PolicyKind.LRV_E, "seeded_random", (0, 9),
     ((5, 3), (9, 4), (9, 17)), 40),
    (8, 3, PolicyKind.LFV_V, "lowest_id", (0, 9), ((0, 2), (5, 3), (9, 4)),
     40),
    (1, 3, PolicyKind.RANDOM, "seeded_random", (5,), ((1, 1), (30, 2)), 30),
    (3, 3, PolicyKind.LFV_E, "seeded_random", (1, 2, 3), (), 25),
    (8192, 10, PolicyKind.LRV_V, "lowest_id",
     tuple(i * 200 // 9 for i in range(1, 9)), ((1025, 0),), 2_000),
]
SEAMS_IDS = ["seams-lrv-e", "seams-lfv-v", "round-chunks", "three-robots",
             "nine-robots"]


def seams_config(w, policy, kind, starts, arrivals, horizon) -> SimConfig:
    return SimConfig(graph=grid_triangulation(w, w).dual, policy=policy,
                     starts=starts, horizon=horizon,
                     tiebreak=TIEBREAKS[kind][1], arrivals=arrivals)


class Exited(Exception):
    """Raised in place of ``os._exit``, so a writer child returns here."""


@pytest.mark.parametrize("short", [False, True], ids=["whole", "cut"])
def test_writer_child_runs_in_process(tmp_path, monkeypatch, short):
    # the forked writer's body in this process: the recorded run's arc ids
    # sit in a pipe (13,204 bytes, less than a pipe holds), the write end
    # is among the ends the child closes, and a source one byte short
    # ends the relay with EOFError, which the child reports and survives
    cfg = SimConfig(graph=grid_triangulation(3, 3).dual,
                    policy=PolicyKind.LRV_E, starts=(0, 4, 8), horizon=900,
                    tiebreak=TieBreakSpec.seeded_random(5),
                    arrivals=((300, 2),))
    trace = run(cfg)
    data = trace.moves.tobytes()
    arcs_in, arcs_out = os.pipe()
    report_in, report_out = os.pipe()
    os.write(arcs_out, data[:-1] if short else data)

    def exit_(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", exit_)
    with open(tmp_path / "events.csv", "w") as events, \
            open(tmp_path / "metrics.csv", "w") as metrics:
        with pytest.raises(Exited) as exited:
            cli._writer_child(cfg, {"events": events, "metrics": metrics},
                              arcs_in, report_out, (arcs_out,))
    os.close(report_out)
    with open(report_in, "rb") as pipe:
        report = json.loads(pipe.read())
    assert exited.value.args == (0,)
    if short:
        assert report == ["EOFError", "the run ended before its horizon"]
        return
    series = refresh_series(trace)
    assert report == ["ok", max(series.vertex_peak), series.coverage_time]
    assert (tmp_path / "events.csv").read_text() == trace.events_csv()
    assert (tmp_path / "metrics.csv").read_text() == metrics_csv(series)


@pytest.mark.parametrize("chunk,w,policy,kind,starts,arrivals,horizon",
                         SEAMS, ids=SEAMS_IDS)
def test_forked_and_in_process_simulate_match(tmp_path, monkeypatch, chunk,
                                              w, policy, kind, starts,
                                              arrivals, horizon):
    # PATROLSIM_WORKERS unset on 2 CPUs: the run's arc ids cross a pipe to
    # a forked writer a chunk at a time; PATROLSIM_WORKERS=1: the same
    # sinks run in this process
    raw = TIEBREAKS[kind][0]
    cfg = seams_config(w, policy, kind, starts, arrivals, horizon)
    monkeypatch.setattr(engine, "EVENTS_CHUNK", chunk)
    assert len(list(engine._chunks(cfg))) > 3
    forks = forking(monkeypatch)
    forked = simulated_outputs(cfg, raw, tmp_path / "forked")
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    one = simulated_outputs(cfg, raw, tmp_path / "one")
    assert forks == [1]
    assert one == forked == recorded_outputs(cfg)


@pytest.mark.parametrize("chunk,w,policy,kind,starts,arrivals,horizon",
                         SEAMS, ids=SEAMS_IDS)
def test_replay_hands_sinks_the_walked_chunks(monkeypatch, chunk, w, policy,
                                              kind, starts, arrivals,
                                              horizon):
    # a recorded run read back through relay gives a sink the chunks and
    # arc ids that _walk gave run's sink; a source cut short ends the
    # replay with EOFError after the chunks it holds whole
    cfg = seams_config(w, policy, kind, starts, arrivals, horizon)
    monkeypatch.setattr(engine, "EVENTS_CHUNK", chunk)
    walked, replayed, cut = [], [], []
    trace = run(cfg, lambda chunk, moves: walked.append((chunk, [*moves])))
    trace.replay(lambda chunk, moves: replayed.append((chunk, [*moves])))
    assert len(walked) > 3 and replayed == walked
    with pytest.raises(EOFError):
        engine.relay(cfg, lambda chunk, moves: cut.append((chunk, [*moves])),
                     io.BytesIO(trace.moves.tobytes()[:-1]))
    assert cut == walked[:-1]


def peak_growth(make, horizons):
    """How much more memory ``make(horizon)`` peaks at for the last horizon
    than for the one before it, as tracemalloc sees this process."""
    peaks = []
    for horizon in horizons:
        tracemalloc.start()
        try:
            make(horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks[-1] - peaks[-2]


def memory_config(robots):
    g = random_connected_graph(11)
    return lambda horizon: SimConfig(graph=g, policy=PolicyKind.LRV_V,
                                     starts=tuple(range(robots)),
                                     horizon=horizon)


HORIZONS = (2_000, 2_000, 20_000)  # the first run warms up caches


def test_run_series_memory_holds_no_events():
    # 3 and 9 robots for 10x the rounds: a metrics-only run grows by its
    # O(horizon) rows alone, however many robots move.  A run that kept one
    # int per move would grow by 8 bytes or more for each of the 9-robot
    # run's 6 * 18,000 extra moves
    series_growth = {}
    for robots in (3, 9):
        config = memory_config(robots)
        series_growth[robots] = peak_growth(lambda h: run_series(config(h)),
                                            HORIZONS)
    assert series_growth[3] < 2**20
    assert series_growth[9] - series_growth[3] < 6 * 18_000


def test_recorded_run_memory_per_move():
    # a recorded run holds one 4-byte arc id a move in the trace's
    # array('i'), and one chunk of moves in a list while it steps: about
    # 4.3 bytes a move.  A list and then a tuple of ids cost about 16, and
    # a stored event tuple 80 or more
    config = memory_config(3)
    trace_growth = peak_growth(lambda h: run(config(h)), HORIZONS)
    assert trace_growth <= 8 * 3 * 18_000
