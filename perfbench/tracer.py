"""Spans around calls into patrolsim's modules, recorded from outside the
program.

``Tracer.install`` swaps each public function named in ``HOOKS`` for a
timing wrapper in every ``patrolsim`` namespace that holds it, so calls
made through re-exported names (``from .engine import run``) are caught
too.  A call is recorded only when it enters a layer from outside it: a
call made while a span of the same layer is open (``run`` stepping the
engine, ``metrics_csv`` calling ``refresh_series``) runs unwrapped and is
part of the caller's span.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

from speed import timed_section

POLICIES = ("lrv-v", "lrv-e", "lfv-v", "lfv-e", "random")
LAYERS = ("engine", "metrics", "oracle", "ownership", "graph", "generators",
          "verify", "cli")
CRITERIA = ("criterion_coverage", "criterion_frequency_bound",
            "criterion_lfve_latency", "criterion_quadratic_growth",
            "criterion_lrv_worst_case", "criterion_multi_robot_speedup",
            "criterion_flower_ratio", "criterion_ownership")
FAMILY_FUNCTIONS = ("path_dual", "cycle", "four_cycle_chain",
                   "diamond_gadget_chain", "flower_barrier",
                   "grid_triangulation")

# Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    ("engine.run_s", "s", "lower"),
    ("engine.run_calls", "count", "lower"),
    ("engine.moves", "count", "lower"),
    *((f"engine.moves_per_s.{p}", "1/s", "higher") for p in POLICIES),
    ("engine.step_s", "s", "lower"),
    ("engine.step_calls", "count", "lower"),
    ("engine.events_csv_s", "s", "lower"),
    ("engine.summary_json_s", "s", "lower"),
    ("engine.run_rss_delta_mb", "MB", "lower"),
    ("metrics.metrics_csv_s", "s", "lower"),
    ("metrics.refresh_series_s", "s", "lower"),
    ("metrics.vertex_peak_refresh_s", "s", "lower"),
    ("metrics.coverage_time_s", "s", "lower"),
    ("metrics.fit_growth_s", "s", "lower"),
    ("metrics.rss_delta_mb", "MB", "lower"),
    ("oracle.search_s", "s", "lower"),
    ("oracle.search_calls", "count", "lower"),
    ("oracle.search_nodes", "count", "lower"),
    ("oracle.search_nodes_per_s", "1/s", "higher"),
    ("oracle.search_complete_ratio", "ratio", "higher"),
    ("ownership.assign_s", "s", "lower"),
    ("ownership.assign_calls", "count", "lower"),
    ("ownership.verify_s", "s", "lower"),
    ("graph.diameter_s", "s", "lower"),
    ("graph.diameter_calls", "count", "lower"),
    ("generators.build_s", "s", "lower"),
    ("generators.build_calls", "count", "lower"),
    *((f"verify.criterion_{i:02d}_s", "s", "lower")
      for i in range(1, len(CRITERIA) + 1)),
    ("cli.simulate_self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _run_facts(result) -> dict:
    return {"policy": result.config.policy.value, "moves": len(result.events)}


def _step_facts(result) -> dict:
    # every robot present after the round moved in it
    return {"policy": result.config.policy.value, "moves": len(result.robots)}


def _search_facts(result) -> dict:
    return {"nodes": result.nodes_explored, "complete": result.complete}


# (span name, module, attribute, facts read from the result, RSS delta?)
HOOKS = (
    ("engine.run", "engine", "run", _run_facts, True),
    ("engine.step", "engine", "step", _step_facts, False),
    ("engine.events_csv", "engine", "Trace.events_csv", None, False),
    ("engine.summary_json", "engine", "Trace.summary_json", None, False),
    ("metrics.metrics_csv", "metrics", "metrics_csv", None, True),
    ("metrics.refresh_series", "metrics", "refresh_series", None, True),
    ("metrics.vertex_peak_refresh", "metrics", "vertex_peak_refresh", None,
     True),
    ("metrics.coverage_time", "metrics", "coverage_time", None, True),
    ("metrics.fit_growth", "metrics", "fit_growth", None, False),
    ("oracle.search", "oracle", "exhaustive_tiebreak_search", _search_facts,
     False),
    ("ownership.assign", "ownership", "assign_owners", None, False),
    ("ownership.verify", "ownership", "verify_theorem1", None, False),
    ("ownership.verify", "ownership", "verify_theorem2", None, False),
    ("graph.diameter", "graph", "diameter", None, False),
    ("generators.build", "generators", "FamilySpec.build", None, False),
    *(("generators.build", "generators", fn, None, False)
      for fn in FAMILY_FUNCTIONS),
    *((f"verify.criterion_{i:02d}", "verify", fn, None, False)
      for i, fn in enumerate(CRITERIA, 1)),
)

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident set size of this process, from /proc/self/statm (0 where
    that file does not exist)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * _PAGE_BYTES
    except OSError:
        return 0


class Tracer:
    """Spans as lists ``[name, layer, start, end, parent index, facts]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name, name.partition(".")[0])
        try:
            yield
        finally:
            self._close(idx)

    def timed(self):
        return timed_section()

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, facts_of, rss):
        layer = name.partition(".")[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            before = rss_bytes() if rss else 0
            idx = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            facts = {}
            if rss:
                facts["rss_delta"] = rss_bytes() - before
            if facts_of is not None:
                try:
                    facts.update(facts_of(result))
                except (AttributeError, TypeError):
                    if f"{name}:facts" not in self.missing:
                        self.missing.append(f"{name}:facts")
            spans[idx][5] = facts
            return result

        return traced

    def install(self) -> None:
        """Wrap every hooked name; a name that no longer exists is listed
        in ``missing`` instead of failing the run."""
        for name, module_name, attr, facts_of, rss in HOOKS:
            try:
                module = importlib.import_module(f"patrolsim.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn, facts_of, rss)
            if owner_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "patrolsim"
                                       or mod_name.startswith("patrolsim.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, key, new) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self) -> None:
        for obj, key, old in reversed(self._undo):
            setattr(obj, key, old)
        self._undo.clear()


def layer_metrics(spans: list[list], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, without the overhead ratio."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    moves_by, time_by = Counter(), defaultdict(float)
    rss_max: dict[str, int] = defaultdict(int)
    nodes = complete = 0
    for i, (name, layer, start, end, _, facts) in enumerate(spans):
        took = end - start
        total[name] += took
        calls[name] += 1
        layer_self[layer] += took - child[i]
        name_self[name] += took - child[i]
        facts = facts or {}
        if "moves" in facts:
            moves_by[facts["policy"]] += facts["moves"]
            time_by[facts["policy"]] += took
        if "rss_delta" in facts:
            rss_max[layer] = max(rss_max[layer], facts["rss_delta"])
        nodes += facts.get("nodes", 0)
        complete += bool(facts.get("complete", False))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    return {
        "engine.run_s": total["engine.run"],
        "engine.run_calls": calls["engine.run"],
        "engine.moves": sum(moves_by.values()),
        **{f"engine.moves_per_s.{p}": rate(moves_by[p], time_by[p])
           for p in POLICIES},
        "engine.step_s": total["engine.step"],
        "engine.step_calls": calls["engine.step"],
        "engine.events_csv_s": total["engine.events_csv"],
        "engine.summary_json_s": total["engine.summary_json"],
        "engine.run_rss_delta_mb": rss_max["engine"] / 2**20,
        "metrics.metrics_csv_s": total["metrics.metrics_csv"],
        "metrics.refresh_series_s": total["metrics.refresh_series"],
        "metrics.vertex_peak_refresh_s": total["metrics.vertex_peak_refresh"],
        "metrics.coverage_time_s": total["metrics.coverage_time"],
        "metrics.fit_growth_s": total["metrics.fit_growth"],
        "metrics.rss_delta_mb": rss_max["metrics"] / 2**20,
        "oracle.search_s": total["oracle.search"],
        "oracle.search_calls": calls["oracle.search"],
        "oracle.search_nodes": nodes,
        "oracle.search_nodes_per_s": rate(nodes, total["oracle.search"]),
        "oracle.search_complete_ratio": rate(complete, calls["oracle.search"]),
        "ownership.assign_s": total["ownership.assign"],
        "ownership.assign_calls": calls["ownership.assign"],
        "ownership.verify_s": total["ownership.verify"],
        "graph.diameter_s": total["graph.diameter"],
        "graph.diameter_calls": calls["graph.diameter"],
        "generators.build_s": total["generators.build"],
        "generators.build_calls": calls["generators.build"],
        **{f"verify.criterion_{i:02d}_s": total[f"verify.criterion_{i:02d}"]
           for i in range(1, len(CRITERIA) + 1)},
        "cli.simulate_self_s": name_self["cli.simulate"],
        "cli.bytes_written": bytes_written,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
    }
