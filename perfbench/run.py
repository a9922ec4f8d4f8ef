"""patrolsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; patrolsim is imported from
``src/``.  The workload's operations run in passes until ``--seconds`` is
spent, each pass checked against the goldens in ``goldens.json``.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics from the
traced passes are reported.  End-to-end times are scaled to a reference
host speed sampled during each untraced pass (see ``speed.py``).  Every metric is printed by name with its unit
and sample count, a result file with the environment goes to
``perfbench/results/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from speed import REFERENCE_S, SpeedMeter, loop_seconds
from tracer import PER_LAYER, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END_UNITS = {"wall_s": "s", "moves_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_pass(workload, goldens: dict, meter) -> dict:
    """Run every operation once.  A failing operation is counted, never
    fatal."""
    totals = {"wall_s": 0.0, "moves": 0, "attempted": 0, "failed": 0,
              "bytes_written": 0, "golden_checked": 0, "problems": []}
    for op in workload.operations:
        golden = goldens.get(op.key)
        try:
            outcome = workload.run(op, meter)
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            weight = workload.weight(golden)
            totals["attempted"] += weight
            totals["failed"] += weight
            totals["problems"].append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        attempted, failed, problems = workload.tally(outcome, golden)
        totals["wall_s"] += outcome.seconds
        # verify-theorems has fixed inputs, so its move count is a constant
        # counted when the goldens were captured
        totals["moves"] += outcome.moves or (golden or {}).get("moves", 0)
        totals["bytes_written"] += outcome.bytes_written
        totals["attempted"] += attempted
        totals["failed"] += failed
        totals["golden_checked"] += golden is not None
        totals["problems"] += [f"{op.key}: {p}" for p in problems]
    return totals


def measure(workload, goldens: dict, seconds: float, trace: bool):
    """Passes until ``seconds`` is spent: a new pass (with trace, an
    untraced and a traced pass) starts only if the longest one so far still
    fits.  Returns (untraced passes, traced passes, hooks not found)."""
    untraced, traced, missing = [], [], []
    began = time.perf_counter()
    longest = 0.0
    while True:
        cycle_start = time.perf_counter()
        gc.collect()  # no garbage of the previous pass is collected in this one
        meter = SpeedMeter()
        with meter.sampling():
            result = run_pass(workload, goldens, meter)
        result["host_wall_s"] = result["wall_s"]
        result["wall_s"] *= meter.scale()
        result["loop_s"] = median(meter.samples)
        untraced.append(result)
        if trace:
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                result = run_pass(workload, goldens, tracer)
            finally:
                tracer.uninstall()
            result["host_wall_s"] = result["wall_s"]
            result["layers"] = layer_metrics(tracer.spans,
                                             result["bytes_written"])
            for earlier in traced:
                earlier.pop("spans", None)
            result["spans"] = tracer.spans
            missing = tracer.missing
            traced.append(result)
        longest = max(longest, time.perf_counter() - cycle_start)
        if time.perf_counter() - began + longest > seconds:
            return untraced, traced, missing


def setup_samples(workload_name: str, seed: int, workdir: Path) -> list[float]:
    """``setup_s`` of fresh interpreters: import patrolsim and build the
    workload's inputs, scaled to the reference speed by loop samples taken
    between the interpreters."""
    samples, loops = [], []
    for i in range(SETUP_PROBES):
        loops.append(loop_seconds())
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload_name,
             str(seed), str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        shutil.rmtree(probe_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    loops.append(loop_seconds())
    scale = REFERENCE_S / median(loops)
    return [sample * scale for sample in samples]


def end_to_end(untraced: list[dict], setup: list[float],
               peak_rss_mb: float) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (median, sample count)."""
    walls = [p["wall_s"] for p in untraced]
    rates = [p["moves"] / p["wall_s"] for p in untraced if p["wall_s"] > 0]
    return {"wall_s": (median(walls), len(walls)),
            "moves_per_s": (median(rates) if rates else 0.0, len(rates)),
            "peak_rss_mb": (peak_rss_mb, 1),
            "setup_s": (median(setup), len(setup))}


def per_layer(untraced: list[dict], traced: list[dict]):
    """Each per-layer metric as (median over traced passes, sample count),
    plus the overhead of tracing."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            ratio = (median(p["host_wall_s"] for p in traced)
                     / median(p["host_wall_s"] for p in untraced))
            out[name] = (ratio, len(traced))
        else:
            out[name] = (median(p["layers"][name] for p in traced),
                         len(traced))
    return out


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "commit": read_commit()}


def main(argv=None) -> int:
    if not (SRC / "patrolsim" / "__init__.py").is_file():
        print(f"error: no patrolsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports patrolsim from SRC

    args = parse_args(argv, WORKLOADS)
    goldens = json.loads((BENCH / "goldens.json").read_text())
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / "_work"))
    try:
        # set-up time is an end-to-end metric, not needed by a traced run
        setup = ([] if args.trace
                 else setup_samples(args.workload, args.seed, workdir))
        workload = WORKLOADS[args.workload](args.seed, workdir)
        began = time.perf_counter()
        untraced, traced, missing = measure(workload, goldens, args.seconds,
                                            bool(args.trace))
        elapsed = time.perf_counter() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = per_layer(untraced, traced)
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end(untraced, setup, peak_rss_mb)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced passes in "
          f"{elapsed:.1f} s; {sum(p['golden_checked'] for p in passes)} "
          f"operation results checked against goldens")
    if not WORKLOADS[args.workload].seed_used:
        print("# this workload has fixed inputs; the seed is not used")
    for name, (value, count) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (median of {count})")
    print(f"# as measured, before scaling to the reference speed: "
          f"{median(p['host_wall_s'] for p in untraced):.6g} s a pass, loop "
          f"{median(p['loop_s'] for p in untraced):.6g} s")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for hook in missing:
        print(f"# missing hook, its metrics read 0: {hook}")
    for msg in problems[:20]:
        print(f"# FAILED {msg}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "metrics": {name: {"value": value, "unit": units[name],
                                 "samples": count}
                          for name, (value, count) in metrics.items()},
              "attempted": attempted, "failed": failed,
              "problems": problems,
              "setup_s_samples": setup,
              "passes": [{k: v for k, v in p.items()
                          if k not in ("problems", "spans")} for p in passes],
              "missing_hooks": missing,
              "spans": traced[-1]["spans"] if traced else []}
    out = results / (f"BENCH_{args.workload}_seed{args.seed}"
                     f"_trace{args.trace}.json")
    out.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, (value, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
