"""Command-line front end: generate instances, run simulations and sweeps,
run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error.
All commands are deterministic given their flags; outputs are byte-stable
across repeated invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import shutil
import sys
from array import array
from pathlib import Path

from . import generators
from .engine import (Child, OutputSink, SimConfig, WorkersError, _workers,
                     forkable, relay, report, run, run_series, send)
from .graph import diameter, dumps_graph, load_graph
from .metrics import fit_growth
from .oracle import exhaustive_tiebreak_search
from .policies import PolicyKind, TieBreakSpec
from .triangulation import dumps_triangulation

USAGE_ERROR = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _check_outputs(command: str, paths: dict,
                   out_dir: Path | None = None) -> dict:
    """Resolve ``paths``, ``{name: path}``, through symlinks and ``..``, and
    return ``{name: resolved path}``.

    An ``out_dir`` that is or lies under a file, two outputs on one file,
    a path naming a directory, ``out_dir`` or one of its parents, and a
    parent that is not a directory and is not made with ``out_dir`` are
    usage errors naming the given path, so a command can check its
    outputs before it does any work."""

    def fail(code: int, path) -> CliError:
        return CliError(
            f"{command}: {OSError(code, os.strerror(code), str(path))}")

    dirs = ()  # out_dir and its parents, resolved: each is or will be made
    if out_dir is not None:
        # where mkdir(parents=True) would stop: the deepest path that
        # exists, a dangling symlink too, must be a directory
        first = next(d for d in (out_dir, *out_dir.parents)
                     if os.path.lexists(d))
        if not first.is_dir():
            raise fail(errno.EEXIST if first == out_dir else errno.ENOTDIR,
                       out_dir)
        dirs = (Path(os.path.realpath(out_dir)),)
        dirs += tuple(dirs[0].parents)
    named, resolved = {}, {}
    for name, path in paths.items():
        real = Path(os.path.realpath(path))
        other = named.setdefault(real, name)
        if other != name:
            raise CliError(f"{command}: outputs {other} and {name} are "
                           f"both written to {path}")
        if real.is_dir() or real in dirs:
            raise fail(errno.EISDIR, path)
        if not real.parent.is_dir() and real.parent not in dirs:
            raise fail(errno.ENOTDIR if real.parent.exists()
                       else errno.ENOENT, path)
        resolved[name] = real
    return resolved


@contextlib.contextmanager
def _writing(command: str, paths: dict, out_dir: Path | None = None):
    """Yield ``{name: file}``, a text file open for each of ``paths``,
    ``{name: path}``, and write them together.

    ``_check_outputs`` resolves and checks every path before anything is
    made.  ``out_dir`` and its missing parents are made next.  Each file is
    a temporary sibling of its path, and only when the block ends without
    error are they all closed and renamed onto their paths; a file replaced
    keeps its permission bits.  On failure the temporaries and the
    directories made are removed, and an ``OSError`` becomes a usage
    error."""
    resolved = _check_outputs(command, paths, out_dir)
    made, temps, files = [], [], {}
    try:
        if out_dir is not None:
            made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
            out_dir.mkdir(parents=True, exist_ok=True)
        for i, (name, real) in enumerate(resolved.items()):
            temps.append(real.with_name(f".{real.name}.{os.getpid()}.{i}.tmp"))
            files[name] = open(temps[-1], "w")
        yield files
        for f in files.values():
            f.close()
        for temp, real in zip(temps, resolved.values()):
            if real.exists():
                shutil.copymode(real, temp)
            os.replace(temp, real)
    except BaseException as exc:
        for f in files.values():
            with contextlib.suppress(OSError):
                f.close()
        for path in temps:
            with contextlib.suppress(OSError):
                os.unlink(path)
        for d in made:  # innermost first
            with contextlib.suppress(OSError):
                d.rmdir()
        if isinstance(exc, OSError):
            raise CliError(f"{command}: {exc}") from exc
        raise


def _write(command: str, outputs: dict, out_dir: Path | None = None) -> None:
    """Write ``outputs``, ``{name: (path, text)}``, through ``_writing``."""
    with _writing(command, {name: path for name, (path, _)
                            in outputs.items()}, out_dir) as files:
        for name, (_, text) in outputs.items():
            files[name].write(text)


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


def _family_spec(family: str, params: dict[str, int]) -> generators.FamilySpec:
    try:
        return generators.FamilySpec(family, params)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_generate(args) -> int:
    spec = _family_spec(args.family, _parse_params(args.params))
    out = Path(args.out)
    try:  # a parameter below the family's minimum (cycle n=2)
        tri = (generators.grid_triangulation(**spec.params)
               if spec.family == "grid_triangulation" else None)
        g = spec.build() if tri is None else tri.dual
    except ValueError as exc:
        raise CliError(f"generate: {exc}") from exc
    outputs = {"graph": (out, dumps_graph(g))}
    if tri is not None:
        tri_out = Path(str(out) + ".tri")
        outputs["triangulation"] = (tri_out, dumps_triangulation(tri))
    _write("generate", outputs)
    print(f"wrote {out}" if tri is None
          else f"wrote {out} (dual graph) and {tri_out} (triangulation)")
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


def _parse_tiebreak(raw, seed: int) -> TieBreakSpec:
    """A tiebreak object, or a string naming its kind; ``-`` may stand for
    ``_`` in the kind.  A seeded_random that names no seed draws from
    ``seed``, and a seed it names, null too, must be an integer.  A seed
    or script that the kind does not read is a usage error, not silently
    dropped."""
    if raw is None:
        return TieBreakSpec.lowest_id()
    if isinstance(raw, str):
        raw = {"kind": raw}
    _reject_unknown(raw, _TIEBREAK_KEYS, "tiebreak.")
    kind = raw.get("kind")
    if isinstance(kind, str):
        kind = kind.replace("-", "_")
    if kind not in ("lowest_id", "seeded_random", "scripted"):
        raise CliError(f"scenario: unknown tiebreak kind {raw.get('kind')!r}")
    for key, reader in (("seed", "seeded_random"), ("script", "scripted")):
        if key in raw and kind != reader:
            raise CliError(f"scenario: tiebreak.{key} is read only by kind "
                           f"{reader}, not {kind}")
    if kind == "seeded_random":
        return TieBreakSpec.seeded_random(
            _check(raw["seed"], int, "tiebreak.seed") if "seed" in raw
            else seed)
    if kind == "scripted":
        return TieBreakSpec.scripted(
            _check(i, int, "tiebreak.script[]")
            for i in _check(raw.get("script", []), list, "tiebreak.script"))
    return TieBreakSpec.lowest_id()


def load_scenario(path, witness: str | None = None
                  ) -> tuple[SimConfig, dict, int]:
    """The scenario's run, its ``outputs`` and its top-level ``seed``."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario: invalid JSON: {exc}")
    except RecursionError:
        raise CliError("scenario: invalid JSON: nested too deeply")
    if not isinstance(raw, dict):
        raise CliError("scenario: top level must be an object")
    _reject_unknown(raw, _SCENARIO_KEYS, "")
    for required in ("graph", "policy", "robots", "horizon"):
        if required not in raw:
            raise CliError(f"scenario: missing key {required}")

    graph_raw = raw["graph"]
    _reject_unknown(graph_raw, _GRAPH_KEYS, "graph.")
    if "file" in graph_raw:
        for key in ("family", "params"):  # the file alone makes the graph
            if key in graph_raw:
                raise CliError(f"scenario: graph.{key} cannot be given with "
                               "graph.file")
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
            g = generators.FamilySpec(family, params).build()
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

    seed = _check(raw.get("seed", 0), int, "seed")
    tiebreak = _parse_tiebreak(raw.get("tiebreak"), seed)
    if witness is not None:
        try:
            script = [int(line) for line
                      in Path(witness).read_text().split()]
        except (OSError, ValueError) as exc:
            raise CliError(f"witness file: {exc}")
        tiebreak = TieBreakSpec.scripted(script)

    outputs = raw.get("outputs", {})
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs.")
    for key, name in outputs.items():
        if "\0" in _check(name, str, f"outputs.{key}"):
            raise CliError(f"scenario: outputs.{key} holds a NUL character")
    try:
        config = SimConfig(graph=g, policy=policy, starts=starts,
                           horizon=_check(raw["horizon"], int, "horizon"),
                           tiebreak=tiebreak, arrivals=tuple(arrivals))
    except ValueError as exc:
        raise CliError(f"scenario: {exc}")
    return config, outputs, seed


def cmd_simulate(args) -> int:
    """Run the scenario and write ``events.csv``, ``metrics.csv`` and
    ``summary.json``.  The run is one ``run`` whose sink is an
    ``OutputSink``: in a forked writer process fed through a pipe
    (``_run_forked``) when ``engine.forkable()``, and in this process
    otherwise.  The outputs and ``PATROLSIM_WORKERS`` are checked before
    anything is written or forked."""
    config, outputs, seed = load_scenario(args.scenario, witness=args.witness)
    # invalid overrides, an isolated start vertex and a script that runs
    # out or points outside a tied set are input errors, not failures
    overrides = {} if args.horizon is None else {"horizon": args.horizon}
    seed = seed if args.seed is None else args.seed  # summary.json's "seed"
    if args.seed is not None and config.tiebreak.kind == "seeded_random":
        overrides["tiebreak"] = TieBreakSpec.seeded_random(seed)
    out_dir = Path(args.out_dir)
    paths = {name: out_dir / outputs.get(name, default)
             for name, default in (("events", "events.csv"),
                                   ("metrics", "metrics.csv"),
                                   ("summary", "summary.json"))}
    forked = forkable()
    try:
        if args.policy:  # --policy '' keeps the scenario's policy
            overrides["policy"] = PolicyKind.parse(args.policy)
        config = dataclasses.replace(config, **overrides)
    except ValueError as exc:
        raise CliError(f"simulate: {exc}") from exc
    with _writing("simulate", paths, out_dir) as files:
        try:
            if forked:
                trace, peak, ct = _run_forked(config, files)
            else:
                sink = OutputSink(config, files["events"], files["metrics"])
                trace = run(config, sink)
                peak, ct = sink.result()
        except ValueError as exc:
            raise CliError(f"simulate: {exc}") from exc
        files["summary"].write(trace.summary_json(
            seed=seed, peak_refresh=peak, coverage_time=ct))
    print(f"peak_refresh={peak} coverage_time={ct}")
    return 0


def _run_forked(config: SimConfig, files: dict) -> tuple:
    """``run(config)`` in this process, with an ``OutputSink`` on
    ``files["events"]`` and ``files["metrics"]`` in a forked
    ``engine.Child``, as ``(trace, peak, coverage_time)``.  The run's
    chunks cross a pipe from ``engine.send`` to ``engine.relay``.  Whatever
    fails here, the child is killed and reaped before this returns, so the
    caller can remove the files."""
    ends = []  # the arc pipe's ends open here
    try:
        ends += os.pipe()
        arcs_in, arcs_out = ends
        with Child() as child:
            if not child.pid:
                _writer_child(config, files, arcs_in, child.fd, (arcs_out,))
            ends.remove(arcs_in)
            os.close(arcs_in)
            try:
                trace = run(config,
                            lambda chunk, moves: send(arcs_out, moves))
            except BrokenPipeError:  # the child stopped: its report says why
                trace = None
            ends.remove(arcs_out)
            os.close(arcs_out)
            result = child.result("simulate: the writer process")
    finally:
        for fd in ends:
            os.close(fd)
    return (trace, *result)


def _writer_child(config: SimConfig, files: dict, arcs_in: int,
                  report_out: int, others: tuple) -> None:
    """The child of ``_run_forked``.  It closes the parent's pipe ends
    ``others``, relays the chunks read from ``arcs_in`` to an
    ``OutputSink``, closes its two files and reports ``[peak,
    coverage_time]`` to ``report_out`` through ``engine.report``, which
    never returns."""
    def write() -> list:
        for fd in others:
            os.close(fd)
        with open(arcs_in, "rb") as pipe:
            sink = OutputSink(config, files["events"], files["metrics"])
            relay(config, sink, pipe)
        files["events"].close()
        files["metrics"].close()
        return [*sink.result()]

    report(report_out, write)


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
    """``[fn(job) for job in jobs]``, in this process, or where
    ``engine.forkable()`` and there is more than one job, in
    ``min(_workers(), len(jobs))`` forked ``engine.Child`` workers that
    take job indices in turn from one pipe (``_take``) and report as JSON.
    Whatever fails, every worker is killed and reaped before this returns."""
    if not forkable() or len(jobs) < 2:  # forkable() reads PATROLSIM_WORKERS
        return [fn(job) for job in jobs]
    done, ends = [], []  # ends: the job pipe's ends open here
    try:
        ends += os.pipe()
        with contextlib.ExitStack() as stack:
            workers = []
            for _ in range(min(_workers(), len(jobs))):
                child = stack.enter_context(Child())
                if not child.pid:
                    report(child.fd, lambda: _take(fn, jobs, *ends))
                workers.append(child)
            os.close(ends.pop(0))
            with contextlib.suppress(BrokenPipeError):  # no worker reads
                send(ends[0], array("i", range(len(jobs))))
            os.close(ends.pop())
            for child in workers:
                done += child.result("a worker process")
    finally:
        for fd in ends:
            os.close(fd)
    return [result for _, result in sorted(done)]


def _take(fn, jobs, queue: int, other: int) -> list:
    """A ``_map`` worker's body: close ``other``, the job pipe's write end,
    then run ``fn(jobs[index])`` for each ``array('i')`` index read from
    ``queue`` until the pipe is empty and closed, as ``[index, result]``
    pairs.  A read short of an index raises ``EOFError``."""
    os.close(other)
    size, done = array("i").itemsize, []
    while data := os.read(queue, size):
        if len(data) < size:
            raise EOFError("a job index was cut short")
        index = array("i", data)[0]
        done.append([index, fn(jobs[index])])
    return done


def _sweep_one(job) -> tuple:
    spec, policy, robots, seed, horizon = job
    g = spec.build()
    starts = tuple(i * g.n // robots for i in range(robots))
    cfg = SimConfig(graph=g, policy=PolicyKind.parse(policy), starts=starts,
                    horizon=horizon, tiebreak=TieBreakSpec.seeded_random(seed))
    series = run_series(cfg)
    return (spec.family, spec.params, policy, robots, seed,
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

    jobs = []
    for value in sweep_values:
        spec = _family_spec(args.family, {**spec_params, sweep_name: value})
        for policy in policies:
            try:
                PolicyKind.parse(policy)
            except ValueError as exc:
                raise CliError(f"--policies: {exc}") from exc
            for robots in robot_counts:
                for seed in seeds:
                    jobs.append((spec, policy, robots, seed, args.horizon))

    out_dir = Path(args.out_dir)
    paths = {name: out_dir / name for name in ("sweep.csv", "fits.txt")}
    _check_outputs("sweep", paths, out_dir)
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
                stat = "exponent" if args.fit == "power" else "ratio"
                fit_lines.append(f"{policy} robots={robots}: {stat}="
                                 f"{fit_growth(series, args.fit):.3f}")
    fits = "".join(f"{line}\n" for line in fit_lines)
    _write("sweep", {
        "sweep.csv": (paths["sweep.csv"], "\n".join(lines) + "\n"),
        "fits.txt": (paths["fits.txt"], fits)}, out_dir)
    print(f"wrote {out_dir / 'sweep.csv'} ({len(rows)} runs)")
    print(fits, end="")
    return 0


def cmd_search(args) -> int:
    spec = _family_spec(args.family, _parse_params(args.params))
    budget = {} if args.budget is None else {"node_budget": args.budget}
    out = Path(args.out)
    _check_outputs("search", {"witness": out})
    # an unknown policy, a start out of range and a negative horizon or
    # budget are input errors
    try:
        res = exhaustive_tiebreak_search(spec.build(),
                                         PolicyKind.parse(args.policy),
                                         args.start, args.horizon, **budget)
    except ValueError as exc:
        raise CliError(f"search: {exc}") from exc
    # a search stopped by its budget before any leaf has no schedule to
    # replay: its peak is the -1 it started from
    reached_leaf = res.peak >= 0
    if reached_leaf:
        _write("search", {"witness": (
            out, "\n".join(str(i) for i in res.witness) + "\n")})
    print(f"peak={res.peak if reached_leaf else 'none'} "
          f"complete={res.complete} nodes_explored={res.nodes_explored} "
          f"witness_choices={len(res.witness)}")
    print(f"wrote {out}" if reached_leaf
          else f"wrote no witness: no leaf within the budget ({out} "
          "untouched)")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # loaded here: no other command needs it
    if args.suite not in verify.SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from "
                       f"{', '.join(sorted(verify.SUITES))}")
    # each check's (line, passed) pairs, which cross a worker's pipe as JSON
    results = [result for results in _map(
        lambda name: [(r.line(), r.passed) for r in verify.run_check(name)],
        verify.SUITES[args.suite]) for result in results]
    for line, _ in results:
        print(line)
    return 0 if all(passed for _, passed in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrolsim",
        description="Simulate and verify local graph-patrolling policies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph family instance")
    p.add_argument("family", help="path | cycle | four-cycle-chain | "
                                  "diamond-gadget-chain | flower-barrier | "
                                  "grid; '_' may stand for '-'")
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

    p = sub.add_parser(
        "search", help="worst tie-break schedule for one robot",
        description="Search every tie-break schedule of one robot for the "
        "worst peak refresh, and write the lexicographically smallest "
        "worst schedule as a witness that simulate --witness replays.  "
        "Memory grows with the horizon where ties are common: on the "
        "grid(10,10) dual at budget 200k, lfv-e peaks at 9.6 MB at horizon "
        "5,000 and 18.6 MB at 10,000, while lrv-v stays at 0.3 MB.  A "
        "search that pushes enough branch frames splits its walk across two "
        "processes, with the same result, unless PATROLSIM_WORKERS=1.")
    p.add_argument("family", help="a generate family")
    p.add_argument("params", nargs="*", help="family parameters, e.g. k=3")
    p.add_argument("--policy", required=True)
    p.add_argument("--start", type=int, default=0, help="start vertex")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="nodes to explore before stopping with "
                   "complete=False (default: the search's own)")
    p.add_argument("--out", default="witness.txt",
                   help="witness file, one choice index per line")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="invariants | theorems | differential")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a shell cannot pass a NUL, a caller of main can; no path holds one
        for name, value in vars(args).items():
            if isinstance(value, str) and "\0" in value:
                raise CliError(f"{args.command}: {name} holds a NUL "
                               "character")
        return args.func(args)
    except (CliError, WorkersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a bad PATROLSIM_WORKERS is a usage error
        return getattr(exc, "code", USAGE_ERROR)


if __name__ == "__main__":
    sys.exit(main())
