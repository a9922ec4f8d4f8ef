"""Command-line front end: generate instances, run simulations and sweeps,
run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
All commands are deterministic given their flags; outputs are byte-stable
across repeated invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import generators, verify
from .engine import SimConfig, run, run_series
from .graph import diameter, dumps_graph, load_graph
from .metrics import fit_growth, metrics_csv, refresh_series
from .policies import PolicyKind, TieBreakSpec
from .triangulation import dumps_triangulation

USAGE_ERROR = 2

_CLI_FAMILIES = {
    "path": "path",
    "cycle": "cycle",
    "four-cycle-chain": "four_cycle_chain",
    "diamond-gadget-chain": "diamond_gadget_chain",
    "flower-barrier": "flower_barrier",
    "grid": "grid_triangulation",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _written_together(paths: list[Path]):
    """Yield a text file open on a temporary sibling of each of ``paths``.

    Only when the block ends without an error are the files closed and
    renamed onto ``paths``; otherwise the temporaries are removed and no
    path is touched.  A symlink is written through, onto the file it names,
    and a file replaced keeps its permission bits.  A path naming a
    directory fails before anything is written, since a rename onto it
    would fail after others were done."""
    targets = [Path(os.path.realpath(path)) for path in paths]
    for path in targets:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(path))
    temps, files = [], []
    try:
        for i, path in enumerate(targets):
            temps.append(path.with_name(f".{path.name}.{os.getpid()}.{i}.tmp"))
            files.append(open(temps[-1], "w"))
        yield files
        for f in files:
            f.close()
        for temp, path in zip(temps, targets):
            if path.exists():
                shutil.copymode(path, temp)
            os.replace(temp, path)
    finally:
        for f in files:
            f.close()
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)


def _parse_params(tokens: list[str]) -> dict[str, int]:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise CliError(f"expected name=value, got {tok!r}")
        name, _, value = tok.partition("=")
        try:
            params[name] = int(value)
        except ValueError:
            raise CliError(f"parameter {name!r}: {value!r} is not an integer")
    return params


def _family_spec(family_cli: str, params: dict[str, int]) -> generators.FamilySpec:
    if family_cli not in _CLI_FAMILIES:
        raise CliError(f"unknown family {family_cli!r}; choose from "
                       f"{', '.join(sorted(_CLI_FAMILIES))}")
    try:
        return generators.FamilySpec(_CLI_FAMILIES[family_cli], params)
    except ValueError as exc:
        raise CliError(f"{family_cli}: {exc}") from exc


def cmd_generate(args) -> int:
    spec = _family_spec(args.family, _parse_params(args.params))
    out = Path(args.out)
    # a parameter below the family's minimum (cycle n=2) and an output path
    # that cannot be written (a missing directory) are input errors
    try:
        if spec.family == "grid_triangulation":
            tri = generators.grid_triangulation(**spec.params)
            g = tri.dual
            texts = {Path(str(out) + ".tri"): dumps_triangulation(tri),
                     out: dumps_graph(g)}
            wrote = f"wrote {out} (dual graph) and {out}.tri (triangulation)"
        else:
            g = spec.build()
            texts = {out: dumps_graph(g)}
            wrote = f"wrote {out}"
        with _written_together(list(texts)) as files:
            for f, text in zip(files, texts.values()):
                f.write(text)
    except (ValueError, OSError) as exc:
        raise CliError(f"generate: {exc}") from exc
    print(wrote)
    print(f"n={g.n} m={g.m} max_degree={g.max_degree()} "
          f"diameter={diameter(g)}")
    return 0


_SCENARIO_KEYS = {"graph", "policy", "tiebreak", "robots", "horizon",
                  "seed", "outputs"}
_GRAPH_KEYS = {"family", "params", "file"}
_ROBOT_KEYS = {"starts", "arrivals"}
_TIEBREAK_KEYS = {"kind", "seed", "script"}
_OUTPUT_KEYS = {"events", "metrics", "summary"}


_KIND_NAMES = {int: "an integer", str: "a string", list: "a list",
               dict: "an object"}


def _check(value, kind: type, path: str):
    """``value`` if it is a ``kind``, else a usage error.  true and false
    are ints to Python but not vertex ids, rounds or seeds."""
    if not isinstance(value, kind) or (kind is int
                                       and isinstance(value, bool)):
        raise CliError(f"scenario: {path} must be {_KIND_NAMES[kind]}, "
                       f"got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed: set, path: str) -> None:
    for key in _check(mapping, dict, path.rstrip(".")):
        if key not in allowed:
            raise CliError(f"scenario: unknown key {path}{key}")


def _parse_tiebreak(raw) -> TieBreakSpec:
    if raw is None:
        return TieBreakSpec.lowest_id()
    if isinstance(raw, str):
        kind = raw.replace("-", "_")
        if kind == "lowest_id":
            return TieBreakSpec.lowest_id()
        if kind == "seeded_random":
            return TieBreakSpec.seeded_random()
        raise CliError(f"scenario: tiebreak {raw!r} needs no arguments only "
                       "for lowest_id/seeded_random")
    _reject_unknown(raw, _TIEBREAK_KEYS, "tiebreak.")
    kind = raw.get("kind")
    if kind == "lowest_id":
        return TieBreakSpec.lowest_id()
    if kind == "seeded_random":
        seed = raw.get("seed")
        return TieBreakSpec.seeded_random(
            None if seed is None else _check(seed, int, "tiebreak.seed"))
    if kind == "scripted":
        return TieBreakSpec.scripted(
            _check(i, int, "tiebreak.script[]")
            for i in _check(raw.get("script", []), list, "tiebreak.script"))
    raise CliError(f"scenario: unknown tiebreak kind {kind!r}")


def load_scenario(path, witness: str | None = None) -> tuple[SimConfig, dict]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario: invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise CliError("scenario: top level must be an object")
    _reject_unknown(raw, _SCENARIO_KEYS, "")
    for required in ("graph", "policy", "robots", "horizon"):
        if required not in raw:
            raise CliError(f"scenario: missing key {required}")

    graph_raw = raw["graph"]
    _reject_unknown(graph_raw, _GRAPH_KEYS, "graph.")
    if "file" in graph_raw:
        try:
            g = load_graph(_check(graph_raw["file"], str, "graph.file"))
        except (OSError, ValueError) as exc:  # bad text, a NUL in the name
            raise CliError(f"scenario: graph.file: {exc}")
    elif "family" in graph_raw:
        family = _check(graph_raw["family"], str, "graph.family")
        params = {k: _check(v, int, f"graph.params.{k}") for k, v
                  in _check(graph_raw.get("params", {}), dict,
                            "graph.params").items()}
        try:
            g = generators.FamilySpec(family.replace("-", "_"),
                                      params).build()
        except ValueError as exc:
            raise CliError(f"scenario: graph: {exc}")
    else:
        raise CliError("scenario: graph needs 'family' or 'file'")

    try:
        policy = PolicyKind.parse(_check(raw["policy"], str, "policy"))
    except ValueError as exc:
        raise CliError(f"scenario: policy: {exc}")

    robots_raw = raw["robots"]
    _reject_unknown(robots_raw, _ROBOT_KEYS, "robots.")
    starts = tuple(_check(v, int, "robots.starts[]") for v
                   in _check(robots_raw.get("starts", []), list,
                             "robots.starts"))
    arrivals = []
    for pair in _check(robots_raw.get("arrivals", []), list,
                       "robots.arrivals"):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CliError("scenario: robots.arrivals entries must be "
                           f"[round, vertex] pairs, got {pair!r}")
        arrivals.append(tuple(_check(x, int, "robots.arrivals[][]")
                              for x in pair))

    if witness is not None:
        try:
            script = [int(line) for line
                      in Path(witness).read_text().split()]
        except (OSError, ValueError) as exc:
            raise CliError(f"witness file: {exc}")
        tiebreak = TieBreakSpec.scripted(script)
    else:
        tiebreak = _parse_tiebreak(raw.get("tiebreak"))

    outputs = raw.get("outputs", {})
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs.")
    for key, name in outputs.items():
        if "\0" in _check(name, str, f"outputs.{key}"):
            raise CliError(f"scenario: outputs.{key} holds a NUL character")
    try:
        config = SimConfig(graph=g, policy=policy, starts=starts,
                           horizon=_check(raw["horizon"], int, "horizon"),
                           tiebreak=tiebreak,
                           seed=_check(raw.get("seed", 0), int, "seed"),
                           arrivals=tuple(arrivals))
    except ValueError as exc:
        raise CliError(f"scenario: {exc}")
    return config, outputs


def cmd_simulate(args) -> int:
    config, outputs = load_scenario(args.scenario, witness=args.witness)
    # invalid overrides, an isolated start vertex and a script that runs
    # out or points outside a tied set are input errors, not failures
    try:
        if args.horizon is not None or args.seed is not None \
                or args.policy is not None:
            config = SimConfig(
                graph=config.graph,
                policy=PolicyKind.parse(args.policy) if args.policy
                else config.policy,
                starts=config.starts,
                horizon=args.horizon if args.horizon is not None
                else config.horizon,
                tiebreak=config.tiebreak,
                seed=args.seed if args.seed is not None else config.seed,
                arrivals=config.arrivals)
        trace = run(config)
    except ValueError as exc:
        raise CliError(f"simulate: {exc}") from exc
    series = refresh_series(trace)
    peak = max(series.vertex_peak, default=0)
    ct = series.coverage_time
    summary = json.loads(trace.summary_json())
    summary["peak_refresh"] = peak
    summary["coverage_time"] = ct

    out_dir = Path(args.out_dir)
    paths = [out_dir / outputs.get(key, name) for key, name
             in (("events", "events.csv"), ("metrics", "metrics.csv"),
                 ("summary", "summary.json"))]
    # two outputs on one file would leave only the one renamed last
    named = {}
    for key, path in zip(("events", "metrics", "summary"), paths):
        other = named.setdefault(os.path.realpath(path), key)
        if other != key:
            raise CliError(f"simulate: outputs {other} and {key} are both "
                           f"written to {path}")
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    try:  # an --out-dir naming a file is an input error
        out_dir.mkdir(parents=True, exist_ok=True)
        with _written_together(paths) as (events, metrics, summary_file):
            trace.write_events_csv(events)
            metrics.write(metrics_csv(series))
            summary_file.write(json.dumps(summary, sort_keys=True, indent=2)
                               + "\n")
    except OSError as exc:
        for d in made:  # the directories this run made, innermost first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise CliError(f"simulate: {exc}") from exc
    print(f"peak_refresh={peak} coverage_time={ct}")
    return 0


def _parse_range(text: str, flag: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            if int(hi) < int(lo):
                raise CliError(f"{flag}: empty range {text!r}")
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects lo..hi or a,b,c, got {text!r}")


def _map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``.  The jobs run in a pool of
    ``min(PATROLSIM_WORKERS, len(jobs), CPUs)`` worker processes when that
    is above 1, and in this process otherwise; PATROLSIM_WORKERS defaults
    to the CPU count, and 1 keeps every job here.  ``fn`` and the jobs
    must pickle."""
    cpus = os.cpu_count() or 1
    setting = os.environ.get("PATROLSIM_WORKERS")
    try:
        wanted = cpus if setting is None else int(setting)
    except ValueError:
        raise CliError(f"PATROLSIM_WORKERS must be an integer, "
                       f"got {setting!r}") from None
    workers = min(wanted, len(jobs), cpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _sweep_one(job) -> tuple:
    family, params, policy, robots, seed, horizon = job
    g = generators.FamilySpec(family, params).build()
    starts = tuple(i * g.n // robots for i in range(robots))
    cfg = SimConfig(graph=g, policy=PolicyKind.parse(policy), starts=starts,
                    horizon=horizon, tiebreak=TieBreakSpec.seeded_random(seed),
                    seed=seed)
    series = run_series(cfg)
    return (family, params, policy, robots, seed,
            max(series.vertex_peak, default=0), series.coverage_time)


def cmd_sweep(args) -> int:
    spec_params = _parse_params(args.params)
    sweep_name, _, sweep_range = args.sweep_param.partition("=")
    if not sweep_range:
        raise CliError("--sweep expects name=lo..hi or name=a,b,c")
    sweep_values = _parse_range(sweep_range, "--sweep")
    policies = [p for p in args.policies.split(",") if p]
    if not policies:
        raise CliError("empty policy list")
    robot_counts = _parse_range(args.robots, "--robots")
    seeds = _parse_range(args.seeds, "--seeds")
    if args.family not in _CLI_FAMILIES:
        raise CliError(f"unknown family {args.family!r}")
    family = _CLI_FAMILIES[args.family]

    jobs = []
    for value in sweep_values:
        params = dict(spec_params)
        params[sweep_name] = value
        _family_spec(args.family, params)  # validate early
        for policy in policies:
            try:
                PolicyKind.parse(policy)
            except ValueError as exc:
                raise CliError(f"--policies: {exc}") from exc
            for robots in robot_counts:
                for seed in seeds:
                    jobs.append((family, params, policy, robots, seed,
                                 args.horizon))

    # a robot count below 1, a negative horizon or an isolated start vertex
    # is an input error
    try:
        rows = _map(_sweep_one, jobs)
    except ValueError as exc:
        raise CliError(f"sweep: {exc}") from exc

    lines = ["family,param,policy,robots,seed,peak_refresh,coverage_time"]
    for family_, params, policy, robots, seed, peak, ct in rows:
        lines.append(f"{family_},{params[sweep_name]},{policy},{robots},"
                     f"{seed},{peak},{'' if ct is None else ct}")

    fit_lines = []
    for policy in policies:
        for robots in robot_counts:
            points = {}
            for family_, params, pol, rob, seed, peak, ct in rows:
                if pol == policy and rob == robots:
                    points.setdefault(params[sweep_name], []).append(peak)
            series = [(value, sum(peaks) / len(peaks))
                      for value, peaks in sorted(points.items())
                      if sum(peaks) > 0]
            if len(series) >= 3:
                fit = fit_growth(series, args.fit)
                stat = (f"exponent={fit.exponent:.3f}" if args.fit == "power"
                        else f"ratio={fit.ratio:.3f}")
                fit_lines.append(f"{policy} robots={robots}: {stat}")
    fit_text = "\n".join(fit_lines)
    out_dir = Path(args.out_dir)
    try:  # an --out-dir naming a file is an input error
        out_dir.mkdir(parents=True, exist_ok=True)
        with _written_together([out_dir / "sweep.csv",
                                out_dir / "fits.txt"]) as (rows_f, fits_f):
            rows_f.write("\n".join(lines) + "\n")
            fits_f.write(fit_text + "\n" if fit_text else "")
    except OSError as exc:
        raise CliError(f"sweep: {exc}") from exc
    print(f"wrote {out_dir / 'sweep.csv'} ({len(rows)} runs)")
    if fit_text:
        print(fit_text)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verify.SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from "
                       f"{', '.join(sorted(verify.SUITES))}")
    results = [result for results in
               _map(verify.run_check, verify.SUITES[args.suite])
               for result in results]
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolsim",
        description="Simulate and verify local graph-patrolling policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph family instance")
    p.add_argument("family", help="path | cycle | four-cycle-chain | "
                                  "diamond-gadget-chain | flower-barrier | grid")
    p.add_argument("params", nargs="*", help="family parameters, e.g. k=3")
    p.add_argument("--out", required=True, help="output graph file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run one scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--witness", default=None,
                   help="scripted tie-break file (one choice index per line)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--policy", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("--family", required=True)
    p.add_argument("--sweep", dest="sweep_param", required=True,
                   help="swept parameter, e.g. k=4..12")
    p.add_argument("--params", dest="params", nargs="*", default=[],
                   help="fixed family parameters")
    p.add_argument("--policies", required=True,
                   help="comma-separated policy names")
    p.add_argument("--robots", default="1")
    p.add_argument("--seeds", default="0")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--fit", choices=("power", "geometric"), default="power")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="invariants | theorems | differential")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
