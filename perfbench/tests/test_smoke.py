"""Smoke tests of the benchmark's own code at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (WORKLOADS, SearchAdversarial, SimulateSwarm,  # noqa: E402
                       VerifyTheorems)

TINY_SEARCHES = (("four_cycle_chain", 2, "lrv-v", 40, 100_000),
                 ("diamond_gadget_chain", 1, "lrv-e", 40, 50))


def tiny_swarm(seed, tmp_path):
    return SimulateSwarm(seed, tmp_path, w=3, h=3, robots=3, horizon=60)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert [op.key for op in tiny_swarm(4, a).operations] \
        == [op.key for op in tiny_swarm(4, b).operations]
    assert [op.key for op in SearchAdversarial(4).operations] \
        == [op.key for op in SearchAdversarial(4).operations]


def test_simulate_passes_untraced_and_traced(tmp_path):
    workload = tiny_swarm(1, tmp_path)
    untraced, traced, missing = run.measure(workload, {}, 0, trace=True)
    assert missing == []
    assert len(untraced) == len(traced) == 1
    for p in untraced + traced:
        assert (p["attempted"], p["failed"]) == (5, 0), p["problems"]
        assert p["moves"] == 5 * 60 * 3
    layers = traced[0]["layers"]
    assert layers["engine.run_calls"] == 5
    assert layers["engine.moves"] == 5 * 60 * 3
    assert all(layers[f"engine.moves_per_s.{p}"] > 0
               for p in tracing.POLICIES)
    assert layers["cli.bytes_written"] == traced[0]["bytes_written"] > 0
    assert 0 < layers["cli.simulate_self_s"] < layers["cli.self_s"] + 1e-9
    metrics = run.end_to_end(untraced, [0.2, 0.3, 0.25], 50.0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert metrics["setup_s"] == (0.25, 3)
    layer_out = run.per_layer(untraced, traced)
    assert [name for name, _, _ in tracing.PER_LAYER] == list(layer_out)


def test_simulate_golden_mismatch_fails_the_operation(tmp_path):
    workload = tiny_swarm(2, tmp_path)
    op = workload.operations[0]
    outcome = workload.run(op, speed.SpeedMeter())
    golden = json.loads(json.dumps(outcome.observed))
    assert workload.tally(outcome, golden) == (1, 0, [])
    golden["summary"]["peak_refresh"] = "0" * 64
    attempted, failed, problems = workload.tally(outcome, golden)
    assert (attempted, failed) == (1, 1)
    assert "peak_refresh" in problems[0]


def test_search_replays_complete_and_capped_searches():
    workload = SearchAdversarial(7, searches=TINY_SEARCHES)
    untraced, traced, _ = run.measure(workload, {}, 0, trace=True)
    assert (untraced[0]["attempted"], untraced[0]["failed"]) == (2, 0)
    layers = traced[0]["layers"]
    assert layers["oracle.search_calls"] == 2
    assert layers["oracle.search_complete_ratio"] == 0.5
    assert layers["oracle.search_nodes"] > 50
    assert layers["engine.run_calls"] == 2


def test_verify_lines_checked_against_the_golden():
    goldens = json.loads((BENCH / "goldens.json").read_text())
    workload = VerifyTheorems(0, suite="invariants")
    result = run.run_pass(workload, goldens, speed.SpeedMeter())
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert result["golden_checked"] == 1
    assert result["moves"] == goldens["verify/invariants"]["moves"] > 0

    tampered = {"verify/invariants": dict(goldens["verify/invariants"])}
    tampered["verify/invariants"]["lines"] = (
        ["PASS something else"] + goldens["verify/invariants"]["lines"][1:])
    result = run.run_pass(workload, tampered, speed.SpeedMeter())
    assert (result["attempted"], result["failed"]) == (3, 1)


def test_unexpected_exit_code_fails_every_line():
    workload = VerifyTheorems(0, suite="no-such-suite")
    result = run.run_pass(workload, {}, speed.SpeedMeter())
    assert result["failed"] == result["attempted"] == 1


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("engine.gone", "engine", "no_such_function", None, False),
        ("graph.gone", "no_such_module", "f", None, False)))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["engine.no_such_function", "no_such_module.f"]


def test_self_time_subtracts_child_spans():
    spans = [["cli.simulate", "cli", 0.0, 10.0, -1, None],
             ["engine.run", "engine", 1.0, 7.0, 0, {"policy": "lrv-v",
                                                   "moves": 12}],
             ["metrics.metrics_csv", "metrics", 7.0, 9.0, 0, None]]
    layers = tracing.layer_metrics(spans, 0)
    assert layers["cli.simulate_self_s"] == 2.0
    assert layers["engine.self_s"] == 6.0
    assert layers["engine.moves_per_s.lrv-v"] == 2.0


def test_speed_samples_are_kept_out_of_timed_sections():
    meter = speed.SpeedMeter()
    with meter.sampling():
        with meter.timed() as watch:
            start = time.perf_counter()
            while time.perf_counter() - start < 1.2:
                pass
    assert meter.spent > 0
    assert watch.seconds == pytest.approx(1.2 - meter.spent, abs=0.02)
    assert len(meter.samples) >= speed.MIN_SAMPLES
    assert meter.scale() > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-swarm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probe_builds_inputs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, "3",
         str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0
