"""Fuzz of the command line's input handling: mutated scenario JSON for
`simulate` (read by `load_scenario`), `generate` family parameters and
`sweep` flags.  Every input must exit 0, or 2 with an `error:` line; an
uncaught exception, which would exit 1 with a traceback, fails the test.

Integers stay small so that a mutant that is still valid runs in
milliseconds; 0 and negative values still reach every range check.
Strings hold no "/", so every path a mutant names is relative to the
fresh directory the example runs in.  A NUL reaches only the scenario
JSON, since a process's arguments cannot hold one.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolsim.cli import main

FAMILIES = ["path", "cycle", "four-cycle-chain", "diamond-gadget-chain",
            "flower-barrier", "grid", "grid-triangulation", "bogus"]
PARAM_NAMES = ["n", "k", "delta", "stair_len", "w", "h", "x"]
POLICIES = ["lrv-v", "lrv-e", "lfv-v", "lfv-e", "random"]
WORDS = ["", ".", "..", "d", "g.graph", "bad.graph", "missing", "x.csv",
         "events.csv", "summary.json", "lowest_id", "seeded-random",
         "scripted", *POLICIES, *FAMILIES, *PARAM_NAMES]

small_ints = st.integers(-3, 12)
words = st.sampled_from(WORDS) | st.text(
    st.characters(blacklist_characters="/\0", blacklist_categories=("Cs",)),
    max_size=4)
json_words = words | st.sampled_from(["\0", "x\0.csv"])
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(-3, 3) | json_words,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(json_words, inner, max_size=3),
    max_leaves=6)

BASES = [
    {"graph": {"family": "grid", "params": {"w": 2, "h": 2}},
     "policy": "lfv-e", "robots": {"starts": [0, 3], "arrivals": [[2, 1]]},
     "horizon": 20, "seed": 1,
     "tiebreak": {"kind": "seeded_random", "seed": 2},
     "outputs": {"events": "e.csv", "metrics": "m.csv",
                 "summary": "s.json"}},
    {"graph": {"file": "g.graph"}, "policy": "lrv-v",
     "robots": {"starts": [0]}, "horizon": 12,
     "tiebreak": {"kind": "scripted", "script": [0, 1, 0]},
     "outputs": {"metrics": "x.csv"}},
    {"graph": {"family": "flower-barrier",
               "params": {"delta": 2, "stair_len": 2}},
     "policy": "random", "robots": {"starts": [1]}, "horizon": 10,
     "tiebreak": "lowest_id"},
]


@contextlib.contextmanager
def fresh_dir(scenario_text: str):
    """Run in a new directory holding the scenario `s.json`, a valid graph
    file `g.graph`, a non-UTF-8 `bad.graph` and a subdirectory `d`, with
    stdout dropped and stderr captured, and with every job in this
    process."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"PATROLSIM_WORKERS": "1"}):
        os.chdir(tmp)
        try:
            for name, text in (("s.json", scenario_text),
                               ("g.graph", "3 3\n0 1\n1 2\n0 2\n")):
                with open(name, "w") as f:
                    f.write(text)
            with open("bad.graph", "wb") as f:
                f.write(b"2 1\n0 1\n# \xff\n")
            os.mkdir("d")
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                yield err
        finally:
            os.chdir(cwd)


def assert_exits_0_or_2(argv, scenario_text: str = "{}") -> None:
    with fresh_dir(scenario_text) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        assert code in (0, 2), (argv, code)
        assert code == 0 or err.getvalue().startswith(("error:", "usage:")), \
            err.getvalue()


def _node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, prefix + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


@st.composite
def mutated_scenarios(draw):
    """A base scenario with one to three values replaced, keys deleted or
    keys added anywhere in its tree.  Mostly one mutation, mostly of a leaf,
    and a string or integer is replaced by one of its own kind half the
    time, so that most mutants get past the other checks to the one the
    mutation tests."""
    scenario = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
        paths = list(_node_paths(scenario))
        leaves = [p for p in paths if p and not isinstance(
            _at(scenario, p), (dict, list))]
        path = draw(st.sampled_from(paths + leaves * 2))
        action = draw(st.sampled_from(["replace", "replace", "delete",
                                       "add"]))
        old = _at(scenario, path)
        value = draw(json_values)
        if isinstance(old, (str, int)) and draw(st.booleans()):
            value = draw(json_words if isinstance(old, str) else small_ints)
        if not path:
            scenario = value
            continue
        parent = _at(scenario, path[:-1])
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(words)] = value
        else:
            parent.append(value)
    return scenario


@given(mutated_scenarios(), st.booleans())
@settings(max_examples=300, deadline=None)
@example({**BASES[1], "graph": {"file": "\0"}}, False)
@example({**BASES[1], "outputs": {"events": "\0"}}, False)
@example({**BASES[1], "outputs": {"events": "x.csv", "summary": "x.csv"}},
         False)
def test_simulate_scenario_fuzz(scenario, as_text):
    text = json.dumps(scenario)
    if as_text:  # a cut-off file as well as a mutated one
        text = text[:len(text) // 2]
    assert_exits_0_or_2(["simulate", "--scenario", "s.json",
                         "--out-dir", "out"], text)


param_tokens = st.one_of(
    st.builds("{}={}".format, st.sampled_from(PARAM_NAMES), small_ints),
    st.builds("{}={}".format, st.sampled_from(PARAM_NAMES), words),
    words)


@given(st.sampled_from(FAMILIES), st.lists(param_tokens, max_size=3),
       words)
@settings(max_examples=300, deadline=None)
def test_generate_params_fuzz(family, params, out):
    assert_exits_0_or_2(["generate", family, *params, "--out", out])


def range_texts():
    lo = st.integers(-2, 6)
    return st.one_of(
        st.builds("{}..{}".format, lo, lo),
        st.lists(lo, min_size=1, max_size=3).map(
            lambda xs: ",".join(map(str, xs))),
        words)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@given(st.lists(st.one_of(
    flag("--family", st.sampled_from(FAMILIES) | words),
    flag("--sweep", st.builds("{}={}".format, st.sampled_from(PARAM_NAMES),
                              range_texts()) | words),
    flag("--params", param_tokens),
    flag("--policies", st.lists(st.sampled_from(POLICIES + ["", "x"]),
                                max_size=3).map(",".join)),
    flag("--robots", range_texts()),
    flag("--seeds", range_texts()),
    flag("--horizon", small_ints | words),
    flag("--fit", st.sampled_from(["power", "geometric", "x"])),
    flag("--out-dir", words)), max_size=10).map(
        lambda flags: [tok for f in flags for tok in f]))
@settings(max_examples=300, deadline=None)
def test_sweep_flags_fuzz(flags):
    base = ["--family", "path", "--sweep", "n=3..5", "--policies", "lrv-v",
            "--horizon", "10"]
    assert_exits_0_or_2(["sweep", *base, *flags])
