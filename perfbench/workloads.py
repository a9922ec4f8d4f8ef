"""The benchmark's workloads.

Each workload builds its inputs from the seed in its constructor (that is
the set-up ``setup_s`` times), lists its operations, and runs one
operation at a time through patrolsim's public entry points: ``cli.main``,
``exhaustive_tiebreak_search`` and ``engine.run``.  ``run`` returns the
operation's time, the facts that are compared with the goldens captured at
the seed commit, and the problems found by checks that hold for any seed.
The ``meter`` it is given times the calls (``meter.timed()``) and records
spans around the calls into ``cli`` (``meter.span()``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import patrolsim
import patrolsim.cli


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    seconds: float                 # time of the calls into patrolsim
    observed: dict                 # compared with the golden of the key
    problems: list[str] = field(default_factory=list)
    moves: int = 0                 # robot moves simulated
    bytes_written: int = 0


@dataclass(frozen=True)
class Operation:
    key: str                       # golden key
    spec: tuple


def _count_lines(data: bytes) -> int:
    return data.count(b"\n")


def placements(w: int, h: int, robots: int) -> int:
    """Distinct rotations of ``robots`` evenly spaced starts on the grid(w,h)
    dual; a rotation by the spacing or more repeats one."""
    return 2 * w * h // robots


class Workload:
    """Defaults: every operation counts once, and the seed shapes the
    inputs."""

    seed_used = True
    operations: list[Operation]

    @staticmethod
    def weight(golden: dict | None) -> int:
        """Operations a run counts as failed when it raises."""
        return 1


class SimulateSwarm(Workload):
    """``patrolsim simulate`` on the grid(w,h) dual with evenly spaced
    robots: one scenario per policy, mixing the lowest_id and seeded_random
    tie-breaks."""

    name = "simulate-swarm"
    SCENARIOS = (("lrv-v", "lowest_id"), ("lrv-e", "seeded_random"),
                 ("lfv-v", "seeded_random"), ("lfv-e", "lowest_id"),
                 ("random", "seeded_random"))

    def __init__(self, seed: int, workdir: Path, w: int = 10, h: int = 10,
                 robots: int = 9, horizon: int = 20_000):
        self.workdir = Path(workdir)
        self.robots, self.horizon = robots, horizon
        n = 2 * w * h
        # The seed rotates the evenly spaced placement.  Every seed maps onto
        # one of the distinct placements, so the goldens cover all seeds.
        rotation = seed % placements(w, h, robots)
        rng = random.Random(rotation)
        starts = [(i * n // robots + rotation) % n for i in range(robots)]
        self.operations = []
        for policy, kind in self.SCENARIOS:
            tiebreak = (kind if kind == "lowest_id"
                        else {"kind": kind, "seed": rng.randrange(2**31)})
            scenario = {"graph": {"family": "grid_triangulation",
                                  "params": {"w": w, "h": h}},
                        "policy": policy, "tiebreak": tiebreak,
                        "robots": {"starts": starts}, "horizon": horizon}
            text = json.dumps(scenario, sort_keys=True)
            path = self.workdir / f"{policy}.json"
            path.write_text(text)
            self.operations.append(Operation(
                f"simulate/{policy}/{sha256(text.encode())[:16]}",
                (path, self.workdir / policy)))

    def run(self, op: Operation, meter) -> Outcome:
        scenario, out_dir = op.spec
        stdout = io.StringIO()
        with meter.timed() as watch, meter.span("cli.simulate"), \
                contextlib.redirect_stdout(stdout):
            code = patrolsim.cli.main(["simulate", "--scenario", str(scenario),
                                       "--out-dir", str(out_dir)])
        seconds = watch.seconds
        if code != 0:
            return Outcome(seconds, {"exit_code": code},
                           [f"exit code {code}"])
        events = (out_dir / "events.csv").read_bytes()
        metrics = (out_dir / "metrics.csv").read_bytes()
        summary_bytes = (out_dir / "summary.json").read_bytes()
        summary = json.loads(summary_bytes)
        observed = {
            "exit_code": code,
            "stdout": stdout.getvalue(),
            "events_sha256": sha256(events),
            "metrics_sha256": sha256(metrics),
            "summary": {k: sha256(json.dumps(v, sort_keys=True).encode())
                        for k, v in summary.items()},
        }
        moves = self.horizon * self.robots
        problems = []
        if _count_lines(events) != 1 + moves:
            problems.append(f"events.csv has {_count_lines(events) - 1} "
                            f"rows, expected {moves}")
        if _count_lines(metrics) != 1 + self.horizon + 1:
            problems.append(f"metrics.csv has {_count_lines(metrics) - 1} "
                            f"rows, expected {self.horizon + 1}")
        if summary.get("events") != moves:
            problems.append(f"summary events {summary.get('events')} != "
                            f"{moves}")
        if sum(summary.get("vertex_visit_counts", ())) != moves + self.robots:
            problems.append("visit counts do not sum to events + robots")
        line = (f"peak_refresh={summary.get('peak_refresh')} "
                f"coverage_time={summary.get('coverage_time')}\n")
        if stdout.getvalue() != line:
            problems.append(f"stdout {stdout.getvalue()!r} disagrees with "
                            "summary.json")
        return Outcome(seconds, observed, problems, moves,
                       len(events) + len(metrics) + len(summary_bytes))

    @staticmethod
    def tally(outcome: Outcome,
              golden: dict | None) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) of one run: every golden key must
        keep its value, and summary.json may gain keys."""
        problems = list(outcome.problems)
        if golden is not None:
            observed = outcome.observed
            problems += [f"{key} differs from the golden"
                         for key in ("exit_code", "stdout", "events_sha256",
                                     "metrics_sha256")
                         if observed.get(key) != golden[key]]
            summary = observed.get("summary", {})
            problems += [f"summary.json {key} differs from the golden"
                         for key, value in golden["summary"].items()
                         if summary.get(key) != value]
        return 1, int(bool(problems)), problems


# Chain ends: a search from either end explores mirror-image trees of the
# same size, so every seed does the same amount of work.
CHAIN_ENDS = {
    "four_cycle_chain": lambda k: (0, 4 * k - 2),
    "diamond_gadget_chain": lambda k: (0, 3 * k),
}


class SearchAdversarial(Workload):
    """``exhaustive_tiebreak_search`` and a replay of each witness through
    ``engine.run`` with a scripted tie-break."""

    name = "search-adversarial"
    # (family, k, policy, horizon, node budget); the last search exhausts
    # its budget, so the incomplete path is timed too.
    SEARCHES = (
        ("four_cycle_chain", 5, "lrv-v", 200, 2_000_000),
        ("four_cycle_chain", 6, "lrv-v", 240, 2_000_000),
        ("diamond_gadget_chain", 3, "lrv-e", 160, 3_000_000),
        ("four_cycle_chain", 5, "lfv-v", 200, 1_000_000),
    )

    def __init__(self, seed: int, workdir: Path | None = None,
                 searches=SEARCHES):
        rng = random.Random(seed)
        self.operations = [
            self.operation(*search, start=rng.choice(CHAIN_ENDS[search[0]](
                search[1])))
            for search in searches]

    @staticmethod
    def operation(family: str, k: int, policy: str, horizon: int,
                  budget: int, start: int) -> Operation:
        return Operation(
            f"search/{family}({k})/{policy}/start{start}/h{horizon}"
            f"/b{budget}",
            (getattr(patrolsim, family)(k), patrolsim.PolicyKind.parse(policy),
             start, horizon, budget))

    def run(self, op: Operation, meter) -> Outcome:
        g, policy, start, horizon, budget = op.spec
        with meter.timed() as watch:
            res = patrolsim.exhaustive_tiebreak_search(
                g, policy, start, horizon, node_budget=budget)
            trace = patrolsim.run(patrolsim.SimConfig(
                graph=g, policy=policy, starts=(start,), horizon=horizon,
                tiebreak=patrolsim.TieBreakSpec.scripted(res.witness)))
            replayed = max(patrolsim.vertex_peak_refresh(trace))
        seconds = watch.seconds
        observed = {"peak": res.peak, "witness": list(res.witness),
                    "complete": res.complete}
        problems = []
        if replayed != res.peak:
            problems.append(f"witness replay peak {replayed} != search peak "
                            f"{res.peak}")
        return Outcome(seconds, observed, problems, moves=horizon)

    @staticmethod
    def tally(outcome: Outcome,
              golden: dict | None) -> tuple[int, int, list[str]]:
        problems = list(outcome.problems)
        if golden is not None:
            problems += [f"{key} differs from the golden"
                         for key in ("peak", "witness", "complete")
                         if outcome.observed.get(key) != golden[key]]
        return 1, int(bool(problems)), problems


class VerifyTheorems(Workload):
    """``patrolsim verify theorems``.  Its inputs are fixed: the seed is
    accepted and ignored."""

    name = "verify-theorems"
    seed_used = False

    def __init__(self, seed: int, workdir: Path | None = None,
                 suite: str = "theorems"):
        self.operations = [Operation(f"verify/{suite}", (suite,))]

    def run(self, op: Operation, meter) -> Outcome:
        (suite,) = op.spec
        stdout = io.StringIO()
        with meter.timed() as watch, meter.span("cli.verify"), \
                contextlib.redirect_stdout(stdout):
            code = patrolsim.cli.main(["verify", suite])
        seconds = watch.seconds
        lines = stdout.getvalue().splitlines()
        problems = [f"not a verdict line: {line!r}" for line in lines
                    if not line.startswith(("PASS ", "FAIL "))]
        expected = int(any(line.startswith("FAIL ") for line in lines))
        if code != expected:
            problems.append(f"exit code {code} with verdicts expecting "
                            f"{expected}")
        return Outcome(seconds, {"exit_code": code, "lines": lines}, problems)

    @staticmethod
    def tally(outcome: Outcome,
              golden: dict | None) -> tuple[int, int, list[str]]:
        """Each verdict line is one operation.  A wrong exit code or a line
        that is not a verdict fails them all."""
        got = outcome.observed["lines"]
        want = golden["lines"] if golden is not None else got
        problems = list(outcome.problems)
        attempted = max(1, len(want))
        code = outcome.observed["exit_code"]
        if golden is not None and code != golden["exit_code"]:
            problems.append(f"exit code {code} != golden {golden['exit_code']}")
        if problems:
            return attempted, attempted, problems
        problems = [f"line {i + 1}: {g!r} != golden {w!r}"
                    for i, (w, g) in enumerate(zip(want, got)) if w != g]
        if len(got) != len(want):
            problems.append(f"{len(got)} verdict lines, golden has "
                            f"{len(want)}")
        failed = sum(w != g for w, g in zip(want, got))
        return (attempted,
                min(attempted, failed + abs(len(got) - len(want))), problems)

    @staticmethod
    def weight(golden: dict | None) -> int:
        return max(1, len(golden["lines"])) if golden is not None else 1


WORKLOADS = {cls.name: cls
             for cls in (SimulateSwarm, SearchAdversarial, VerifyTheorems)}
