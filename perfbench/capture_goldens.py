"""Capture the goldens every benchmark run is checked against.

    python3 perfbench/capture_goldens.py

Run once, at the commit whose outputs are the reference; the result is
``perfbench/goldens.json``.  It records, for every input a seed can
produce: simulate-swarm's output hashes and summary.json values, each
search's peak, witness and completeness, and the verdict lines of
``patrolsim verify``.  A later change must reproduce these, not recapture
them.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import read_commit  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (CHAIN_ENDS, SearchAdversarial, SimulateSwarm,  # noqa: E402
                       VerifyTheorems, placements)


def observe(workload, op, meter=None):
    outcome = workload.run(op, meter or SpeedMeter())
    _, failed, problems = workload.tally(outcome, None)
    if failed:
        raise SystemExit(f"{op.key}: {problems}")
    print(op.key, flush=True)
    return outcome.observed


def main() -> None:
    goldens = {"_about": "perfbench/capture_goldens.py at commit "
                         + read_commit()}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for seed in range(placements(10, 10, 9)):  # the default swarm
            workload = SimulateSwarm(seed, Path(tmp))
            for op in workload.operations:
                goldens[op.key] = observe(workload, op)

    searcher = SearchAdversarial(0)
    for family, k, policy, horizon, budget in SearchAdversarial.SEARCHES:
        for start in CHAIN_ENDS[family](k):
            op = SearchAdversarial.operation(family, k, policy, horizon,
                                             budget, start)
            goldens[op.key] = observe(searcher, op)

    for suite in ("theorems", "invariants"):
        workload = VerifyTheorems(0, suite=suite)
        (op,) = workload.operations
        tracer = Tracer()
        tracer.install()
        try:
            golden = observe(workload, op, tracer)
        finally:
            tracer.uninstall()
        golden["moves"] = layer_metrics(tracer.spans, 0)["engine.moves"]
        goldens[op.key] = golden

    (BENCH / "goldens.json").write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
