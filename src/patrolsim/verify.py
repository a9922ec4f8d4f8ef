"""Machine-checkable verification suites backing `patrolsim verify`.

Three suites: structural invariants, the theorem-level acceptance checks,
and differential testing of the engine against the naive reference
simulator.  Each criterion returns a CheckResult, and the invariants
check a list of three, so both the CLI and the test suite can consume
them.  ``SUITES`` names each suite's checks, which ``run_check`` runs one
at a time, in this process or in a forked worker, which inherits this
module as it stands.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from . import generators
from .engine import SimConfig, init, run, run_series, step
from .graph import Graph, diameter, dumps_graph, parse_graph
from .metrics import fit_growth, refresh_series
from .oracle import (WorstCaseResult, exhaustive_tiebreak_search,
                     reference_run)
from .ownership import (OwnerMap, assign_owners, verify_theorem1,
                        verify_theorem2)
from .policies import PolicyKind, TieBreakSpec

ALL_POLICIES = (PolicyKind.LRV_V, PolicyKind.LRV_E,
                PolicyKind.LFV_V, PolicyKind.LFV_E)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _coverage_families() -> dict[str, Graph]:
    """Representative instances of every family, all with n <= 200."""
    return {
        "path(50)": generators.path_dual(50),
        "cycle(60)": generators.cycle(60),
        "four_cycle_chain(12)": generators.four_cycle_chain(12),
        "diamond_gadget_chain(16)": generators.diamond_gadget_chain(16),
        "flower_barrier(4,8)": generators.flower_barrier(4, 8),
        "grid(7,7).dual": generators.grid_triangulation(7, 7).dual,
    }


# --- acceptance criteria -------------------------------------------------

def criterion_coverage() -> CheckResult:
    """1: every policy fully covers every family within 10*n*d rounds.

    One run per family and policy, stepped a round at a time until every
    vertex is visited or the budget is spent."""
    worst = []
    for name, g in _coverage_families().items():
        budget = 10 * g.n * diameter(g)
        for pol in ALL_POLICIES:
            state = init(SimConfig(graph=g, policy=pol, starts=(0,),
                                   horizon=budget))
            while min(state.vcnt) == 0 and state.round < budget:
                step(state)
            if min(state.vcnt) == 0:
                return CheckResult("coverage", False,
                                   f"{name} under {pol.value}: no coverage "
                                   f"within {budget} rounds")
            worst.append(state.round / budget)
    return CheckResult("coverage", True,
                       f"all families covered; worst coverage time used "
                       f"{max(worst):.1%} of the 10*n*d budget")


def criterion_frequency_bound() -> CheckResult:
    """2: while any vertex is unvisited under LFV_V, max visit count stays
    within max_degree ** diameter.  20 seeds per family."""
    checked = 0
    for name, g in _coverage_families().items():
        d = diameter(g)
        bound = g.max_degree() ** d
        for seed in range(20):
            cfg = SimConfig(graph=g, policy=PolicyKind.LFV_V, starts=(0,),
                            horizon=10 * g.n * d,
                            tiebreak=TieBreakSpec.seeded_random(seed))
            state = init(cfg)
            counts = state.vcnt
            for _ in range(cfg.horizon):
                step(state)
                if min(counts) > 0:
                    break
                checked += 1
                if max(counts) > bound:
                    return CheckResult(
                        "frequency-bound", False,
                        f"{name} seed {seed}: count {max(counts)} exceeds "
                        f"bound {bound} with unvisited vertices present")
    return CheckResult("frequency-bound", True,
                       f"zero violations in {checked} uncovered rounds")


def criterion_lfve_latency() -> CheckResult:
    """3: LFV_E vertex peak refresh <= 4*m*d after an m*d warm-up on grid
    duals with n in {50, 128, 200}, 10 seeds each."""
    details = []
    for w, h in ((5, 5), (8, 8), (10, 10)):
        g = generators.grid_triangulation(w, h).dual
        d = diameter(g)
        md = g.m * d
        worst = 0
        for seed in range(10):
            cfg = SimConfig(graph=g, policy=PolicyKind.LFV_E,
                            starts=(seed % g.n,), horizon=5 * md,
                            tiebreak=TieBreakSpec.seeded_random(seed))
            peak = max(run_series(cfg, after=md).vertex_peak)
            worst = max(worst, peak)
            if peak > 4 * md:
                return CheckResult(
                    "lfve-latency", False,
                    f"grid({w},{h}) seed {seed}: peak {peak} > 4*m*d={4 * md}")
        details.append(f"n={g.n}: worst {worst} <= {4 * md}")
    return CheckResult("lfve-latency", True, "; ".join(details))


def criterion_quadratic_growth() -> CheckResult:
    """4: last-component peak refresh on four_cycle_chain(k), k=4..12,
    grows with power exponent in [1.6, 2.5] for LFV_V and LRV_E."""
    details = []
    for pol in (PolicyKind.LFV_V, PolicyKind.LRV_E):
        points = []
        for k in range(4, 13):
            g = generators.four_cycle_chain(k)
            peaks = run_series(SimConfig(graph=g, policy=pol, starts=(0,),
                                         horizon=60 * k * k)).vertex_peak
            points.append((k, max(peaks[4 * (k - 1):])))
        exponent = fit_growth(points, "power")
        details.append(f"{pol.value}: exponent {exponent:.2f}")
        if not 1.6 <= exponent <= 2.5:
            return CheckResult("quadratic-growth", False,
                               f"{pol.value}: exponent {exponent:.2f} "
                               "outside [1.6, 2.5]")
    return CheckResult("quadratic-growth", True, "; ".join(details))


def criterion_lrv_worst_case() -> CheckResult:
    """5: adversarial tie-break search on four_cycle_chain k=2..4 under
    LRV_V: every witness replays exactly through the engine and the
    reference, and worst peaks grow geometrically with ratio >= 1.5.  The
    reconstructed diamond gadget chain under LRV_E is reported alongside."""
    points = []
    for k in (2, 3, 4):
        g = generators.four_cycle_chain(k)
        horizon = 40 * k
        res = _replays_witness(g, PolicyKind.LRV_V, horizon)
        if res is None:
            return CheckResult("lrv-worst-case", False,
                               f"k={k}: engine, reference and search "
                               "diverge")
        default = max(run_series(SimConfig(
            graph=g, policy=PolicyKind.LRV_V, starts=(0,),
            horizon=horizon)).vertex_peak)
        if res.peak < default:
            return CheckResult("lrv-worst-case", False,
                               f"k={k}: search peak {res.peak} below "
                               f"lowest-id peak {default}")
        points.append((k, res.peak))
    ratio = fit_growth(points, "geometric")

    gadget_points = []
    for k in (1, 2, 3):
        g = generators.diamond_gadget_chain(k)
        res = exhaustive_tiebreak_search(g, PolicyKind.LRV_E, 0, 40 * (k + 1),
                                         node_budget=3_000_000)
        gadget_points.append((k, res.peak))
    gadget_ratio = fit_growth(gadget_points, "geometric")

    passed = ratio >= 1.5 or gadget_ratio >= 1.5
    detail = (f"four_cycle_chain peaks {points}, ratio {ratio:.2f}; "
              f"diamond_gadget_chain peaks {gadget_points}, "
              f"ratio {gadget_ratio:.2f}; "
              f"factor-2 target {'met' if max(ratio, gadget_ratio) >= 1.8 else 'not met'}")
    return CheckResult("lrv-worst-case", passed, detail)


def _steady_mean(series, start_round: int) -> float:
    window = series.round_max[start_round:]
    return sum(window) / len(window)


def multi_robot_steady_means() -> tuple[int, dict[PolicyKind, dict[int, float]]]:
    """Criterion 6's measurement on the 200-triangle grid dual: for LRV_V
    and LFV_E, the steady-state mean maximum refresh with r in {1, 3, 9}
    robots.  Returns n and, per policy, the mean for each r.

    The r=1 run is 30k rounds, averaged from round 24k; its last 2*m moves
    are the single-robot steady tour, and the r=3 and r=9 runs start with
    their robots evenly spaced along it and are averaged over rounds
    25k-40k."""
    g = generators.grid_triangulation(10, 10).dual
    means = {}
    for pol in (PolicyKind.LRV_V, PolicyKind.LFV_E):
        peaks = {}
        # single-robot steady tour, the heads of the last 2*m moves; the
        # run also serves as the r=1 measurement
        trace = run(SimConfig(graph=g, policy=pol, starts=(0,),
                              horizon=30_000))
        tour = [g.arcs[a][2] for a in trace.moves[-2 * g.m:]]
        peaks[1] = _steady_mean(refresh_series(trace), 24_000)
        for r in (3, 9):
            # robots start evenly spaced along the single-robot steady tour
            starts = tuple(tour[(i * len(tour)) // r] for i in range(r))
            peaks[r] = _steady_mean(run_series(SimConfig(
                graph=g, policy=pol, starts=starts, horizon=40_000)), 25_000)
        means[pol] = peaks
    return g.n, means


def _decimals(least: int, holds) -> int:
    """The fewest decimals, ``least`` or more, at which ``holds(decimals)``:
    a FAIL clause printed at them reads true."""
    return next((d for d in range(least, 17) if holds(d)), 17)


def criterion_multi_robot_speedup() -> CheckResult:
    """6: on the 200-triangle grid dual, steady-state mean maximum refresh
    for r in {1, 3, 9} stays within 3*n/r for LRV_V and LFV_E, with
    peak(1)/peak(9) >= 4.

    LFV_E at r=9 does not meet its clause (about 89 against 66.7), and
    the policy does not promise it.  On this graph 2*m = 560 <= 3*n = 600,
    so 3*n/r lies just above 2*m/r, the refresh of r robots evenly spaced
    on LFV_E's 2*m-round tour: the clause holds only if the swarm keeps
    that spacing, and nothing in the local rule does.  The verdict is
    reported against the bound as stated; the README has the
    measurements."""
    n, means = multi_robot_steady_means()
    failures = []
    details = []
    for pol, peaks in means.items():
        for r, peak in peaks.items():
            bound = 3 * n / r
            if peak > bound:
                d = _decimals(0, lambda d: round(peak, d) > round(bound, d))
                failures.append(
                    f"{pol.value} r={r}: {peak:.{d}f} > {bound:.{d}f}")
        speedup = peaks[1] / peaks[9]
        if speedup < 4:
            d = _decimals(1, lambda d: round(speedup, d) < 4)
            failures.append(f"{pol.value}: speedup {speedup:.{d}f} < 4")
        details.append(f"{pol.value} peaks " +
                       ", ".join(f"r={r}:{p:.0f}" for r, p in peaks.items()) +
                       f", speedup {speedup:.1f}")
    if failures:
        return CheckResult("multi-robot-speedup", False,
                           "; ".join(failures) + " | " + "; ".join(details))
    return CheckResult("multi-robot-speedup", True, "; ".join(details))


def criterion_flower_ratio() -> CheckResult:
    """7: on flower_barrier(3, 6) under LFV_V the start vertex's visit
    count exceeds the median staircase vertex count by >= delta/2 = 1.5 at
    some round."""
    g = generators.flower_barrier(3, 6)
    stairs = [int(v) for v in g.meta["stair_vertices"].split(",")]
    cfg = SimConfig(graph=g, policy=PolicyKind.LFV_V, starts=(0,),
                    horizon=4000)
    state = init(cfg)
    counts = state.vcnt
    best = 0.0
    for _ in range(cfg.horizon):
        step(state)
        med = statistics.median(counts[v] for v in stairs)
        if med > 0:
            best = max(best, counts[0] / med)
    passed = best >= 1.5
    return CheckResult("flower-ratio", passed,
                       f"best start/median-staircase ratio {best:.2f} "
                       f"(threshold 1.5)")


def criterion_ownership() -> CheckResult:
    """8: owner assignment on grids up to 10x10 has connected owners on
    every dual edge, no primal vertex owns more dual edges than the bound,
    and the max dual-edge ownership count is a constant independent of
    grid size."""
    max_owned = {}
    for w in range(2, 11):
        t = generators.grid_triangulation(w, w)
        result = assign_owners(t)
        if not isinstance(result, OwnerMap):
            return CheckResult("ownership", False,
                               f"grid({w},{w}): {result.message}")
        v1 = verify_theorem1(t, result)
        if v1:
            return CheckResult("ownership", False,
                               f"grid({w},{w}): {len(v1)} connected-owner "
                               "violations")
        report = verify_theorem2(t, result)
        if report.violations:
            return CheckResult("ownership", False,
                               f"grid({w},{w}): {len(report.violations)} "
                               "primal vertices own more than "
                               f"{report.bound} dual edges")
        max_owned[w] = report.max_dual_edges_owned
    plateau = {max_owned[w] for w in range(4, 11)}
    if len(plateau) != 1:
        return CheckResult("ownership", False,
                           f"ownership count grows with size: {max_owned}")
    return CheckResult("ownership", True,
                       f"zero violations; max dual edges owned per primal "
                       f"vertex = {plateau.pop()} for all grid sizes")


def _random_connected_graph(rng: random.Random) -> Graph:
    n = rng.randrange(2, 21)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def _differential_configs():
    """Criterion 9's configs, numbered.  500 short runs on random connected
    graphs of 2-20 vertices, then 12 long ones from their own seed: 5-8
    starts and 4 arrivals, at round 0, twice in one early round and at the
    horizon, in shuffled order, over 1,000-1,300 rounds, so that chunk
    seams (``engine.EVENTS_CHUNK``) fall between arrivals."""
    policies = list(ALL_POLICIES) + [PolicyKind.RANDOM]
    short, long = random.Random(20260823), random.Random(20261019)
    for case in range(512):
        rng = short if case < 500 else long
        g = _random_connected_graph(rng)
        if case < 500:
            starts = tuple(rng.randrange(g.n)
                           for _ in range(rng.randrange(1, 4)))
            horizon = rng.randrange(1, 201)
            arrivals = ([(rng.randrange(1, horizon), rng.randrange(g.n))]
                        if case % 7 == 0 and horizon > 2 else [])
        else:
            starts = tuple(rng.randrange(g.n)
                           for _ in range(rng.randrange(5, 9)))
            horizon = rng.randrange(1000, 1301)
            mid = rng.randrange(1, horizon // 4)
            arrivals = [(t, rng.randrange(g.n))
                        for t in (0, mid, mid, horizon)]
            rng.shuffle(arrivals)
        yield case, SimConfig(
            graph=g, policy=policies[case % len(policies)], starts=starts,
            horizon=horizon, arrivals=tuple(arrivals),
            tiebreak=(TieBreakSpec.lowest_id() if case % 2 == 0
                      else TieBreakSpec.seeded_random(case)))


def _witness_cases():
    """Criterion 9's tie-break searches of one robot from vertex 0, as
    ``(name, graph, policy, horizon)``."""
    return (
        ("four_cycle_chain(2)", generators.four_cycle_chain(2),
         PolicyKind.LRV_V, 80),
        ("four_cycle_chain(3)", generators.four_cycle_chain(3),
         PolicyKind.LRV_V, 120),
        ("diamond_gadget_chain(1)", generators.diamond_gadget_chain(1),
         PolicyKind.LRV_E, 80),
        ("cycle(5)", generators.cycle(5), PolicyKind.LFV_E, 60),
    )


def _diverges(tr, ref) -> bool:
    """Whether an engine trace and a reference trace differ."""
    return (tr.events != ref.events or tr.marks != ref.marks
            or tr.vertex_visit_counts != ref.vertex_visit_counts
            or tr.edge_traversal_counts != ref.edge_traversal_counts)


def _replays_witness(g: Graph, policy: PolicyKind,
                     horizon: int) -> WorstCaseResult | None:
    """The search of one robot from vertex 0, or None unless its witness,
    replayed as a SCRIPTED tie-break, gives the engine and the reference
    one run, with the searched peak."""
    res = exhaustive_tiebreak_search(g, policy, 0, horizon)
    cfg = SimConfig(graph=g, policy=policy, starts=(0,), horizon=horizon,
                    tiebreak=TieBreakSpec.scripted(res.witness))
    tr = run(cfg)
    if (_diverges(tr, reference_run(cfg))
            or max(refresh_series(tr).vertex_peak) != res.peak):
        return None
    return res


def criterion_differential() -> CheckResult:
    """9: engine and reference simulator produce identical traces and
    placements on every config of ``_differential_configs``, and so does
    the witness of each tie-break search of ``_witness_cases``, which the
    engine replays to the searched peak.  An exception on either side
    fails the case."""
    witnesses = _witness_cases()
    try:
        for case, cfg in _differential_configs():
            where = f"case {case}"
            if _diverges(run(cfg), reference_run(cfg)):
                return CheckResult(
                    "differential", False, f"{where}: engine and reference "
                    f"diverge (n={cfg.graph.n}, policy={cfg.policy.value}, "
                    f"horizon={cfg.horizon})")
        for name, g, policy, horizon in witnesses:
            where = f"{name} {policy.value} witness at horizon {horizon}"
            if _replays_witness(g, policy, horizon) is None:
                return CheckResult("differential", False, f"{where}: engine, "
                                   "reference and search diverge")
    except Exception as exc:  # a broken side may raise anything
        return CheckResult("differential", False,
                           f"{where}: {type(exc).__name__}: {exc}")
    return CheckResult("differential", True,
                       f"{case + 1} randomized configs and "
                       f"{len(witnesses)} search witnesses identical")


# --- suites --------------------------------------------------------------

def suite_invariants() -> list[CheckResult]:
    results = []
    ok, notes = True, []
    for name, g in _coverage_families().items():
        bad = g.validate(require_max_deg3=g.meta.get("triangulation_dual") == "yes")
        if bad:
            ok = False
            notes.append(f"{name}: {bad}")
        if sum(g.degree(v) for v in range(g.n)) != 2 * g.m:
            ok = False
            notes.append(f"{name}: degree sum mismatch")
        if parse_graph(dumps_graph(g)) != g:
            ok = False
            notes.append(f"{name}: save/load round-trip changed the graph")
    results.append(CheckResult("graph-invariants", ok,
                               "; ".join(notes) or "all families structurally sound"))

    g = generators.four_cycle_chain(3)
    cfg = SimConfig(graph=g, policy=PolicyKind.LRV_V, starts=(0, 5),
                    horizon=300, tiebreak=TieBreakSpec.seeded_random(3))
    t1, t2 = run(cfg), run(cfg)
    det = t1.moves == t2.moves
    results.append(CheckResult("run-determinism", det,
                               "identical traces on repeated runs"
                               if det else "traces diverged"))

    total = sum(t1.vertex_visit_counts)
    conserved = total == len(t1.moves) + len(t1.marks)
    results.append(CheckResult("visit-conservation", conserved,
                               f"{total} visits = {len(t1.marks)} markings "
                               f"+ {len(t1.moves)} moves" if conserved
                               else "visit counts do not sum to marks and moves"))
    return results


SUITES = {
    "invariants": ("suite_invariants",),
    "theorems": ("criterion_coverage", "criterion_frequency_bound",
                 "criterion_lfve_latency", "criterion_quadratic_growth",
                 "criterion_lrv_worst_case", "criterion_multi_robot_speedup",
                 "criterion_flower_ratio", "criterion_ownership"),
    "differential": ("criterion_differential",),
}


def run_check(name: str) -> list[CheckResult]:
    """The results of the check function ``name`` of this module, one of
    those listed in ``SUITES``.  The checks are independent, so they may
    run in any process.  A check is looked up by name when it runs, so a
    function swapped onto the module's attribute (a test's stub, a
    profiler's wrapper) is the one called, in this process or in a worker
    forked after the swap."""
    result = globals()[name]()
    return result if isinstance(result, list) else [result]
