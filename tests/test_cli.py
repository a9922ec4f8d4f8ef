import concurrent.futures
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import patrolsim
from patrolsim import cli, engine
from patrolsim.cli import main
from patrolsim.generators import grid_triangulation
from patrolsim.graph import dumps_graph, load_graph
from patrolsim.triangulation import dumps_triangulation


def write_scenario(path, **overrides):
    scenario = {
        "graph": {"family": "four-cycle-chain", "params": {"k": 2}},
        "policy": "lrv-v",
        "robots": {"starts": [0]},
        "horizon": 100,
    }
    scenario.update(overrides)
    path.write_text(json.dumps(scenario))
    return path


def test_generate_four_cycle_chain(tmp_path, capsys):
    out = tmp_path / "fcc3.graph"
    assert main(["generate", "four-cycle-chain", "k=3",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "12 14"
    stdout = capsys.readouterr().out
    assert "n=12 m=14 max_degree=3" in stdout
    g = load_graph(out)
    assert g.meta["family"] == "four_cycle_chain"


def test_generate_grid_writes_triangulation(tmp_path):
    out = tmp_path / "grid.graph"
    assert main(["generate", "grid", "w=2", "h=2", "--out", str(out)]) == 0
    assert load_graph(out).n == 8
    assert Path(str(out) + ".tri").read_text() == dumps_triangulation(
        grid_triangulation(2, 2))


def test_generate_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["generate", "moebius", "n=3", "--out", out]) == 2
    assert main(["generate", "path", "k=3", "--out", out]) == 2
    assert main(["generate", "path", "n=zero", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err


def no_work(*args, **kwargs):
    raise AssertionError("ran before checking the outputs")


@pytest.mark.parametrize("argv,message", [
    (["generate", "cycle", "n=2", "--out", "{tmp}/c.graph"],
     "cycle requires n >= 3"),
    (["generate", "flower-barrier", "delta=1", "stair_len=1",
      "--out", "{tmp}/f.graph"], "flower_barrier requires delta >= 2"),
    (["generate", "cycle", "n=5", "--out", "{tmp}/missing/c.graph"],
     "No such file or directory"),
    (["generate", "grid", "w=2", "h=2", "--out", "{tmp}/missing/g.graph"],
     "No such file or directory"),
    (["generate", "cycle", "n=5", "--out", "{tmp}"], "Is a directory"),
    (["simulate", "--scenario", "{tmp}/s.json", "--out-dir", "{tmp}/file"],
     "File exists"),
    (["simulate", "--scenario", "{tmp}/s.json",
      "--out-dir", "{tmp}/file/sub"], "Not a directory"),
    (["simulate", "--scenario", "{tmp}/s.json",
      "--out-dir", "{tmp}/dangling"], "File exists"),
    (["simulate", "--scenario", "{tmp}/nodir.json", "--out-dir", "{tmp}/run"],
     "No such file or directory: '{tmp}/run/nodir/metrics.csv'"),
    (["simulate", "--scenario", "{tmp}/dot.json", "--out-dir", "{tmp}/run"],
     "Is a directory: '{tmp}/run'"),
    (["sweep", "--family", "path", "--sweep", "n=4..5", "--policies",
      "lrv-v", "--horizon", "10", "--out-dir", "{tmp}/file"],
     "File exists"),
    (["sweep", "--family", "path", "--sweep", "n=4..5", "--policies",
      "lrv-v", "--horizon", "10", "--out-dir", "{tmp}/file/sub"],
     "Not a directory"),
    (["search", "torus", "n=3", "--policy", "lrv-v", "--horizon", "10",
      "--out", "{tmp}/w.txt"], "unknown family 'torus'"),
    (["search", "four-cycle-chain", "k", "--policy", "lrv-v",
      "--horizon", "10", "--out", "{tmp}/w.txt"], "expected name=value"),
    (["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
      "--horizon", "10", "--out", "{tmp}/missing/w.txt"],
     "No such file or directory"),
    (["search", "four-cycle-chain", "k=2", "--policy", "lrv-x",
      "--horizon", "10", "--out", "{tmp}/w.txt"], "unknown policy 'lrv-x'"),
    (["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
      "--start", "8", "--horizon", "10", "--out", "{tmp}/w.txt"],
     "start vertex 8 out of range"),
    (["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
      "--horizon", "-1", "--out", "{tmp}/w.txt"], "horizon must be >= 0"),
    (["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
      "--horizon", "10", "--budget", "-1", "--out", "{tmp}/w.txt"],
     "node_budget must be >= 0"),
    (["search", "path", "n=1", "--policy", "lrv-v", "--horizon", "10",
      "--out", "{tmp}/w.txt"], "start vertex 0 is isolated"),
    (["simulate", "--scenario", "{tmp}/s.json", "--witness",
      "{tmp}/missing.txt", "--out-dir", "{tmp}/o"],
     "witness file: [Errno 2] No such file or directory"),
    (["sweep", "--family", "path", "--sweep", "n=4..5", "--policies", ",",
      "--horizon", "10", "--out-dir", "{tmp}/o"], "empty policy list"),
], ids=["generate-cycle-n2", "generate-flower-delta1",
        "generate-missing-dir", "generate-grid-missing-dir",
        "generate-onto-dir", "simulate-out-dir-file",
        "simulate-out-dir-under-file", "simulate-out-dir-dangling-link",
        "simulate-output-in-missing-dir", "simulate-output-is-out-dir",
        "sweep-out-dir-file", "sweep-out-dir-under-file",
        "search-unknown-family", "search-param-without-value",
        "search-missing-dir", "search-unknown-policy",
        "search-start-out-of-range", "search-negative-horizon",
        "search-negative-budget", "search-isolated-start",
        "simulate-missing-witness", "sweep-no-policy"])
def test_bad_family_params_and_output_paths_exit_2(tmp_path, monkeypatch,
                                                   capsys, argv, message):
    # an output that cannot be written is found before any run
    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "_map", no_work)
    write_scenario(tmp_path / "s.json")
    write_scenario(tmp_path / "nodir.json",
                   outputs={"metrics": "nodir/metrics.csv"})
    write_scenario(tmp_path / "dot.json", outputs={"events": "."})
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to("nowhere/target")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(tmp=tmp_path) in err
    assert err.count("\n") == 1 and ".tmp" not in err
    assert not (tmp_path / "w.txt").exists()
    assert not (tmp_path / "run").exists()


# each family with parameters, and every name it may be given by
FAMILY_NAMES = [
    ("path", {"n": 5}, ["path"]),
    ("cycle", {"n": 5}, ["cycle"]),
    ("four_cycle_chain", {"k": 3}, ["four_cycle_chain", "four-cycle-chain"]),
    ("diamond_gadget_chain", {"k": 2},
     ["diamond_gadget_chain", "diamond-gadget-chain"]),
    ("flower_barrier", {"delta": 3, "stair_len": 3},
     ["flower_barrier", "flower-barrier"]),
    ("grid_triangulation", {"w": 2, "h": 3},
     ["grid_triangulation", "grid-triangulation", "grid"]),
]


@pytest.mark.parametrize("family,params,name", [
    pytest.param(family, params, name, id=name)
    for family, params, names in FAMILY_NAMES for name in names])
def test_family_spellings_give_one_graph(tmp_path, capsys, family, params,
                                         name):
    tokens = [f"{k}={v}" for k, v in params.items()]
    texts = []
    for i, spelling in enumerate((family, name)):
        out = tmp_path / f"{i}.graph"
        assert main(["generate", spelling, *tokens, "--out", str(out)]) == 0
        texts.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{i}.*"))])
    assert texts[0] == texts[1]
    assert load_graph(tmp_path / "0.graph").meta["family"] == family

    scenario = write_scenario(tmp_path / "s.json",
                              graph={"family": name, "params": params})
    config, _, _ = cli.load_scenario(scenario)
    assert dumps_graph(config.graph).encode() == texts[0][0]


def test_search_witness_replays_to_its_peak(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    assert main(["search", "four-cycle-chain", "k=3", "--policy", "lrv-v",
                 "--horizon", "120", "--out", str(witness)]) == 0
    out = capsys.readouterr().out.splitlines()
    fields = dict(tok.split("=") for tok in out[0].split())
    assert fields["complete"] == "True"
    assert int(fields["witness_choices"]) == len(witness.read_text().split())
    assert out[1] == f"wrote {witness}"

    scenario = write_scenario(
        tmp_path / "s.json", horizon=120,
        graph={"family": "four-cycle-chain", "params": {"k": 3}})
    assert main(["simulate", "--scenario", str(scenario),
                 "--witness", str(witness),
                 "--out-dir", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["peak_refresh"] == int(fields["peak"])


def test_search_over_budget_exits_0_incomplete(tmp_path, capsys):
    witness = tmp_path / "w.txt"
    assert main(["search", "four_cycle_chain", "k=3", "--policy", "lfv-v",
                 "--horizon", "60", "--budget", "500",
                 "--out", str(witness)]) == 0
    out = capsys.readouterr().out
    assert " complete=False nodes_explored=501 " in out
    assert not out.startswith("peak=-1 ") and witness.read_text() != "\n"


@pytest.mark.parametrize("out,message", [
    ("missing/w.txt", "No such file or directory"),
    ("sub", "Is a directory"),
], ids=["missing-dir", "onto-dir"])
def test_search_checks_out_before_searching(tmp_path, monkeypatch, capsys,
                                            out, message):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking --out")

    monkeypatch.setattr(cli, "exhaustive_tiebreak_search", no_search)
    (tmp_path / "sub").mkdir()
    path = str(tmp_path / out)
    assert main(["search", "four-cycle-chain", "k=5", "--policy", "lfv-v",
                 "--horizon", "200", "--budget", "1000000",
                 "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: search: ") and err.count("\n") == 1
    assert message in err and f"'{path}'" in err and ".tmp" not in err


def test_search_reaching_no_leaf_writes_no_witness(tmp_path, capsys):
    # the budget runs out on the first descent, before any leaf: there is
    # no peak and no schedule, and a file already at --out is left as it is
    witness = tmp_path / "w.txt"
    witness.write_text("7\n")
    assert main(["search", "four_cycle_chain", "k=5", "--policy", "lfv-v",
                 "--horizon", "400", "--budget", "50",
                 "--out", str(witness)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "peak=none complete=False nodes_explored=51 witness_choices=0",
        f"wrote no witness: no leaf within the budget ({witness} untouched)"]
    assert witness.read_text() == "7\n"
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_simulate_outputs(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "s.json")
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "peak_refresh=" in stdout and "coverage_time=" in stdout
    events = (out_dir / "events.csv").read_text().splitlines()
    assert events[0] == "round,robot,from,edge,to"
    assert len(events) == 101
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,max_refresh,coverage_fraction"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["policy"] == "lrv-v"
    assert summary["peak_refresh"] >= 1


def test_simulate_byte_determinism(tmp_path):
    scenario = write_scenario(tmp_path / "s.json",
                              tiebreak={"kind": "seeded_random", "seed": 9})
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["simulate", "--scenario", str(scenario),
                     "--out-dir", str(out_dir)]) == 0
        dirs.append(out_dir)
    for fname in ("events.csv", "metrics.csv", "summary.json"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


# sha256 of simulate's three outputs for one small scenario per policy,
# recorded before the engine moved to flat state lists; any change to the
# traces, the metrics or the summary shows here
GOLDEN_OUTPUTS = {
    ("lrv-v", "lowest_id"): {
        "events.csv":
            "8e12129e4358f17f762bd86ea07edf482e980eabcb4c6be57bdb6fd4928e7439",
        "metrics.csv":
            "aeebb02bd916ac3fc18c258c34ee8429069d473f6303240236406d95305ffb21",
        "summary.json":
            "f01837a40fcb6ccc5259dc29dfca3be9f42be9cd04c30d529b7cb90115905ed5",
    },
    ("lrv-e", "seeded_random"): {
        "events.csv":
            "f9331ad55cdccb1e0e7bdfabbc1480b1e7fc6c832a0444008deab24bad349e1c",
        "metrics.csv":
            "0ae15f363a727b265c6fa4e80f9734436f0f63d491b80b6438b17b26e3611e85",
        "summary.json":
            "1331e09ea3ef937b50f5de9740d2e2a47ff09ef485171e9267f294314b5af408",
    },
    ("lfv-v", "seeded_random"): {
        "events.csv":
            "d478207ae85ad8141432275ee2e72a0544f296963ce87209dc40b0e91463e666",
        "metrics.csv":
            "4a7dea71cbcd7a8ad5132d76757624c29444622d2c8b99230833d702241ea3b9",
        "summary.json":
            "708477ba6542208edf407397a9e83c81032f81e5adde59c1ea057297765ceae3",
    },
    ("lfv-e", "lowest_id"): {
        "events.csv":
            "3caa62fa6f0e4b89c4553fc01840af4b2a7737957a9eb6c5bcc8de4162966fc9",
        "metrics.csv":
            "da7a08cba3a4d5c54585b95c51af0403b71679b8a8943d913a0034f22be87cca",
        "summary.json":
            "9f6db8580dd955dde644f40b85a37a380ff2ce0a2cb696258221828e86f611b7",
    },
    ("random", "seeded_random"): {
        "events.csv":
            "76248bdab004dcbb48f086354d344c9728761fce49e8d48d75d602810a0e0171",
        "metrics.csv":
            "34a684f2eec3652db249f7f239740cc157a1d24f4fdef8a6c5a3285deebafb41",
        "summary.json":
            "f00637260f598e1de5070909dc17b46aa791e09993ca9c9e035bdc5c53c8ba24",
    },
}


@pytest.mark.parametrize("policy,kind", list(GOLDEN_OUTPUTS))
def test_simulate_outputs_match_golden_hashes(tmp_path, policy, kind):
    # grid(4,4) dual, two robots from round 0 and one arriving at round 40
    scenario = {
        "graph": {"family": "grid_triangulation", "params": {"w": 4, "h": 4}},
        "policy": policy,
        "tiebreak": (kind if kind == "lowest_id"
                     else {"kind": kind, "seed": 7}),
        "robots": {"starts": [0, 13], "arrivals": [[40, 27]]},
        "horizon": 500,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--scenario", str(path),
                 "--out-dir", str(out_dir)]) == 0
    for fname, digest in GOLDEN_OUTPUTS[policy, kind].items():
        assert hashlib.sha256((out_dir / fname).read_bytes()).hexdigest() \
            == digest, fname


@pytest.mark.parametrize("overrides,message", [
    ({"robots": {"starts": ["0"]}}, "robots.starts[] must be an integer"),
    ({"robots": {"starts": [True]}}, "robots.starts[] must be an integer"),
    ({"robots": {"starts": [0], "arrivals": [[1]]}},
     "[round, vertex] pairs"),
    ({"policy": 3}, "policy must be a string"),
    ({"horizon": "100"}, "horizon must be an integer"),
    ({"horizon": True}, "horizon must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"tiebreak": {"kind": "scripted", "script": []}}, "script exhausted"),
    ({"graph": {"family": "path", "params": {"n": 1}}}, "has no neighbors"),
    ({"graph": {"family": "path", "params": {"n": "3"}}},
     "graph.params.n must be an integer"),
    ({"tiebreak": {"kind": "scripted", "script": ["1"]}},
     "tiebreak.script[] must be an integer"),
    ({"outputs": {"events": 5}}, "outputs.events must be a string"),
    ({"robots": [0]}, "robots must be an object"),
    ({"tiebreak": "bogus"}, "scenario: unknown tiebreak kind 'bogus'"),
    ({"tiebreak": {"kind": "bogus"}},
     "scenario: unknown tiebreak kind 'bogus'"),
    ({"graph": {"family": "cycle", "params": {"n": 40}, "file": "p.graph"}},
     "scenario: graph.family cannot be given with graph.file"),
    ({"graph": {"params": {"n": 40}, "file": "p.graph"}},
     "scenario: graph.params cannot be given with graph.file"),
    ({"tiebreak": {"kind": "lowest_id", "script": [1, 1]}},
     "scenario: tiebreak.script is read only by kind scripted, "
     "not lowest_id"),
    ({"tiebreak": {"kind": "scripted", "seed": 3, "script": [0]}},
     "scenario: tiebreak.seed is read only by kind seeded_random, "
     "not scripted"),
    ({"tiebreak": {"kind": "lowest-id", "seed": 3}},
     "scenario: tiebreak.seed is read only by kind seeded_random, "
     "not lowest_id"),
    ({"tiebreak": {"kind": "seeded_random", "seed": None}},
     "scenario: tiebreak.seed must be an integer, got None"),
    ({"policy": "lrv-x"}, "scenario: policy: unknown policy 'lrv-x'"),
    ({"robots": {"starts": [0], "arrivals": [[1, 99]]}},
     "scenario: arrival vertex 99 out of range"),
    ({"graph": {"family": "torus"}}, "scenario: graph: unknown family"),
    ({"graph": {}}, "scenario: graph needs 'family' or 'file'"),
    ({"outputs": {"events": "a\0b"}},
     "scenario: outputs.events holds a NUL character"),
], ids=["start-string", "start-bool", "arrival-short", "policy-int",
        "horizon-string", "horizon-bool", "seed-float", "script-empty",
        "isolated-start", "param-string", "script-string", "output-int",
        "robots-list", "tiebreak-string-unknown", "tiebreak-kind-unknown",
        "graph-file-and-family", "graph-file-and-params",
        "script-on-lowest-id", "seed-on-scripted", "seed-on-lowest-id",
        "tiebreak-seed-null", "policy-unknown", "arrival-out-of-range",
        "family-unknown", "graph-empty", "output-nul"])
def test_simulate_bad_scenario_exits_2(tmp_path, capsys, overrides, message):
    scenario = write_scenario(tmp_path / "s.json", **overrides)
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


SEEDED = {"kind": "seeded_random"}


@pytest.mark.parametrize("tiebreak,flags,edits", [
    (SEEDED, [], {}),
    (SEEDED, ["--policy", ""], {}),
    (SEEDED, ["--policy", "lfv-e", "--seed", "3", "--horizon", "50"],
     {"policy": "lfv-e", "seed": 3, "horizon": 50}),
    ({"kind": "seeded_random", "seed": 5}, ["--seed", "2"],
     {"seed": 2, "tiebreak": {"kind": "seeded_random", "seed": 2}}),
    ("seeded-random", [], {"tiebreak": SEEDED}),
    ({"kind": "seeded-random", "seed": 4}, [],
     {"tiebreak": {"kind": "seeded_random", "seed": 4}}),
], ids=["none", "empty-policy", "all-three", "seed-over-tiebreak-seed",
        "tiebreak-string", "tiebreak-kind-dashed"])
def test_simulate_flags_override_the_scenario(tmp_path, capsys, tiebreak,
                                              flags, edits):
    # the scenario as flagged equals the scenario edited; --seed also
    # replaces the seed a seeded_random tiebreak names
    flagged = write_scenario(tmp_path / "a.json", tiebreak=tiebreak)
    edited = write_scenario(tmp_path / "b.json",
                            **{"tiebreak": tiebreak, **edits})
    assert main(["simulate", "--scenario", str(flagged), *flags,
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--scenario", str(edited),
                 "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("events.csv", "metrics.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


def test_scenario_seed_feeds_a_seeded_random_tiebreak(tmp_path, capsys):
    # a seeded_random tie-break that names no seed draws from the
    # top-level seed, and summary.json reports the top-level seed even
    # where the tie-break names its own
    runs = {}
    for name, edits in (
            ("top", {"seed": 5, "tiebreak": SEEDED}),
            ("both", {"seed": 5, "tiebreak": {**SEEDED, "seed": 5}}),
            ("own", {"tiebreak": {**SEEDED, "seed": 5}})):
        scenario = write_scenario(tmp_path / f"{name}.json", **edits)
        assert main(["simulate", "--scenario", str(scenario),
                     "--out-dir", str(tmp_path / name)]) == 0
        runs[name] = {f: (tmp_path / name / f).read_bytes()
                      for f in ("events.csv", "metrics.csv")}
        runs[name]["seed"] = json.loads(
            (tmp_path / name / "summary.json").read_text())["seed"]
    assert runs["top"] == runs["both"]
    assert runs["own"] == {**runs["top"], "seed": 0}


@pytest.mark.parametrize("flags,message", [
    (["--horizon", "-1"], "simulate: horizon must be >= 0"),
    (["--policy", "bogus"], "simulate: unknown policy 'bogus'"),
], ids=["negative-horizon", "unknown-policy"])
def test_simulate_bad_flag_exits_2(tmp_path, capsys, flags, message):
    scenario = write_scenario(tmp_path / "s.json")
    assert main(["simulate", "--scenario", str(scenario), *flags,
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "s.json", extra_knob=1)
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "unknown key extra_knob" in capsys.readouterr().err


def test_simulate_witness_replay(tmp_path, capsys):
    from patrolsim.generators import four_cycle_chain
    from patrolsim.oracle import exhaustive_tiebreak_search
    from patrolsim.policies import PolicyKind

    res = exhaustive_tiebreak_search(four_cycle_chain(2), PolicyKind.LRV_V,
                                     0, 100)
    witness = tmp_path / "w.txt"
    witness.write_text("\n".join(str(i) for i in res.witness) + "\n")
    scenario = write_scenario(tmp_path / "s.json")
    assert main(["simulate", "--scenario", str(scenario),
                 "--witness", str(witness),
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert f"peak_refresh={res.peak} " in capsys.readouterr().out


@pytest.mark.parametrize("tiebreak", [
    "seeded_random", {"kind": "scripted", "script": [5, 5]}],
    ids=["seeded-random", "scripted"])
def test_simulate_witness_replaces_a_valid_tiebreak(tmp_path, capsys,
                                                    tiebreak):
    # the witness replaces the scenario's tie-break, as a flag replaces its
    # key; summary.json still reports the scenario's seed
    witness = tmp_path / "w.txt"
    assert main(["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
                 "--horizon", "100", "--out", str(witness)]) == 0
    peak = capsys.readouterr().out.split()[0].removeprefix("peak=")
    scenario = write_scenario(tmp_path / "s.json", tiebreak=tiebreak, seed=5)
    assert main(["simulate", "--scenario", str(scenario),
                 "--witness", str(witness),
                 "--out-dir", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.startswith(f"peak_refresh={peak} ")
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert (summary["tiebreak"], summary["seed"]) == ("scripted", 5)


@pytest.mark.parametrize("tiebreak,message", [
    ({"kind": "bogus", "seed": "x"}, "unknown tiebreak kind 'bogus'"),
    ({"kind": "seeded_random", "seed": "x"},
     "tiebreak.seed must be an integer, got 'x'"),
    ({"kind": "lowest_id", "script": []},
     "tiebreak.script is read only by kind scripted, not lowest_id"),
], ids=["unknown-kind", "seed-string", "script-on-lowest-id"])
def test_simulate_witness_with_bad_tiebreak_exits_2(tmp_path, capsys,
                                                    tiebreak, message):
    # the scenario's tie-break is checked even where a witness replaces it
    witness = tmp_path / "w.txt"
    witness.write_text("")
    scenario = write_scenario(tmp_path / "s.json", tiebreak=tiebreak,
                              graph={"family": "path", "params": {"n": 4}})
    assert main(["simulate", "--scenario", str(scenario),
                 "--witness", str(witness),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: scenario: {message}\n"
    assert not (tmp_path / "o").exists()


def test_simulate_witness_with_unread_entry_exits_2(tmp_path, capsys):
    from patrolsim.generators import four_cycle_chain
    from patrolsim.oracle import exhaustive_tiebreak_search
    from patrolsim.policies import PolicyKind

    res = exhaustive_tiebreak_search(four_cycle_chain(2), PolicyKind.LRV_V,
                                     0, 100)
    witness = tmp_path / "w.txt"
    witness.write_text("\n".join(str(i) for i in res.witness + (0,)) + "\n")
    scenario = write_scenario(tmp_path / "s.json")
    assert main(["simulate", "--scenario", str(scenario),
                 "--witness", str(witness),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "1 script choices left unread" in capsys.readouterr().err


def test_sweep(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--family", "path", "--sweep", "n=4..6",
                 "--policies", "lrv-v,lfv-v", "--horizon", "60",
                 "--seeds", "0,1", "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert rows[0] == "family,param,policy,robots,seed,peak_refresh,coverage_time"
    assert len(rows) == 1 + 3 * 2 * 2
    fits = (out_dir / "fits.txt").read_text()
    assert "lrv-v robots=1: exponent=" in fits


# sha256 of each output a growth fit or a diameter reaches, recorded before
# fit_growth returned a bare float and the adjacency became one table
FIT_AND_DIAMETER_OUTPUTS = {
    ("power", "sweep.csv"):
        "11144147dc86b0305e1e23b7d4367a13ad34f9a51e1e3ee5c8da60325f772e41",
    ("power", "fits.txt"):
        "61ee6660000bc2ca745034d52a931074026a2983eda3c08a42f061280704f7ec",
    ("geometric", "sweep.csv"):
        "1d521830473a5a4393207dc8c24ca82c93a51a4d100d87a0d69b31c1b858d8b6",
    ("geometric", "fits.txt"):
        "5523d0e0b0e1111d8ec127a41bc5706aabde4d1f5bbc47860c53a9f88c436ce9",
    ("generate", "stdout"):
        "e035a88f359e3b901d817f2ea7649977e4fabde4bae86e8f61adca442e6cb8f9",
}


def test_fit_and_diameter_outputs_match_golden_hashes(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PATROLSIM_WORKERS", "1")
    assert main(["sweep", "--family", "four-cycle-chain", "--sweep", "k=3..7",
                 "--policies", "lrv-v,lfv-e", "--robots", "1,2",
                 "--seeds", "0,1", "--horizon", "300",
                 "--out-dir", "power"]) == 0
    assert main(["sweep", "--family", "four-cycle-chain", "--sweep", "k=3..5",
                 "--policies", "lrv-v", "--horizon", "200",
                 "--fit", "geometric", "--out-dir", "geometric"]) == 0
    capsys.readouterr()
    assert main(["generate", "grid", "w=6", "h=4", "--out", "g.graph"]) == 0
    digests = {(name, f): hashlib.sha256(
        (tmp_path / name / f).read_bytes()).hexdigest()
        for name in ("power", "geometric")
        for f in ("sweep.csv", "fits.txt")}
    digests["generate", "stdout"] = hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest()
    assert digests == FIT_AND_DIAMETER_OUTPUTS


def test_sweep_bad_range(tmp_path, capsys):
    assert main(["sweep", "--family", "path", "--sweep", "n",
                 "--policies", "lrv-v", "--horizon", "10",
                 "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--policies", "bogus", "unknown policy 'bogus'"),
    ("--sweep", "n=a..b", "--sweep expects"),
    ("--robots", "x", "--robots expects"),
    ("--seeds", "x", "--seeds expects"),
    ("--robots", "0", "at least one robot"),
    ("--sweep", "n=1..2", "has no neighbors"),
], ids=["policy", "sweep-range", "robots", "seeds", "robots-zero",
        "isolated-start"])
def test_sweep_bad_input_exits_2(tmp_path, capsys, flag, value, message):
    args = {"--family": "path", "--sweep": "n=4..5", "--policies": "lrv-v",
            "--horizon": "10", "--out-dir": str(tmp_path)}
    args[flag] = value
    assert main(["sweep", *(tok for pair in args.items()
                            for tok in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_verify_invariants(capsys):
    assert main(["verify", "invariants"]) == 0
    out = capsys.readouterr().out
    assert "PASS graph-invariants" in out
    assert "PASS run-determinism" in out
    assert "PASS visit-conservation" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_verify_invariants_without_numpy():
    # the package needs nothing outside the standard library
    src = str(Path(patrolsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.modules['numpy'] = None; "
            "from patrolsim.cli import main; "
            "sys.exit(main(['verify', 'invariants']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS run-determinism" in proc.stdout


def test_generate_failure_leaves_no_files(tmp_path, capsys):
    # the .tri file would be written before the graph file fails
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["generate", "grid", "w=2", "h=2", "--out", str(taken)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(taken.iterdir()) == []


@pytest.mark.parametrize("overrides", [
    {"outputs": {"metrics": "nodir/metrics.csv"}},
    {"tiebreak": {"kind": "scripted", "script": [0]}},
], ids=["unwritable-metrics", "script-runs-out"])
def test_simulate_failure_leaves_no_files(tmp_path, capsys, overrides):
    scenario = write_scenario(tmp_path / "s.json", **overrides)
    out_dir = tmp_path / "out" / "run"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: simulate: ")
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def forking(monkeypatch) -> list:
    """Make ``simulate`` fork its writer as on a 2-CPU host, and return the
    list that each fork appends to."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("PATROLSIM_WORKERS", raising=False)
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def counting_writes(monkeypatch, fail_at=None) -> list:
    """Count this process's ``os.write`` calls, the chunks sent to the
    writer; the ``fail_at``-th call raises ``KeyboardInterrupt``."""
    writes, write = [], os.write

    def counted(fd, data):
        writes.append(len(data))
        if len(writes) == fail_at:
            raise KeyboardInterrupt
        return write(fd, data)

    monkeypatch.setattr(os, "write", counted)
    return writes


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class FailingSink(cli.OutputSink):
    """An ``OutputSink`` whose disk fills on the second chunk of moves."""

    def __call__(self, chunk, moves):
        self.calls = getattr(self, "calls", 0) + bool(moves)
        if self.calls == 2:
            raise OSError(28, "No space left on device")
        super().__call__(chunk, moves)


@pytest.mark.parametrize("tiebreak,horizon,chunk,sink,message", [
    ({"kind": "scripted", "script": [0, 0]}, 100, 1, cli.OutputSink,
     "script exhausted"),
    ({"kind": "scripted", "script": [0] * 500}, 100, 8192, cli.OutputSink,
     "script choices left unread"),
    ("lowest_id", 60_000, 8192, FailingSink, "No space left on device"),
], ids=["script-runs-out", "script-left-unread", "writer-oserror"])
def test_forked_simulate_failure_leaves_nothing(tmp_path, monkeypatch,
                                                capsys, tiebreak, horizon,
                                                chunk, sink, message):
    # the writer child is killed and reaped, and every temporary and the
    # new --out-dir are removed.  The script runs out at its third tie, in
    # round 8, after 7 one-round chunks were sent; the writer fails on the
    # second of 8 chunks, while more arc ids are left to send than a pipe
    # holds
    forks = forking(monkeypatch)
    writes = counting_writes(monkeypatch)
    monkeypatch.setattr(engine, "EVENTS_CHUNK", chunk)
    monkeypatch.setattr(cli, "OutputSink", sink)
    scenario = write_scenario(tmp_path / "s.json", tiebreak=tiebreak,
                              horizon=horizon)
    assert main(["simulate", "--scenario", str(scenario),
                 "--out-dir", str(tmp_path / "out" / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulate: ") and err.count("\n") == 1
    assert message in err
    assert forks == [1] and len(writes) >= 1
    assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]
    assert_no_child_left()


def test_interrupted_forked_simulate_leaves_nothing(tmp_path, monkeypatch):
    forks = forking(monkeypatch)
    counting_writes(monkeypatch, fail_at=3)
    scenario = write_scenario(tmp_path / "s.json", horizon=30_000)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--scenario", str(scenario),
              "--out-dir", str(tmp_path / "out")])
    assert forks == [1]
    assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]
    assert_no_child_left()


@pytest.mark.parametrize("end,message", [
    (lambda: os._exit(3), "exit code 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
], ids=["exit-3", "killed"])
def test_unreported_writer_end_names_how_it_ended(tmp_path, monkeypatch,
                                                  end, message):
    # a writer that ends without a report: the error names its exit code
    # or signal, not the raw wait status
    forks = forking(monkeypatch)
    monkeypatch.setattr(cli, "_writer_child", lambda *args: end())
    scenario = write_scenario(tmp_path / "s.json")
    with pytest.raises(RuntimeError) as raised:
        main(["simulate", "--scenario", str(scenario),
              "--out-dir", str(tmp_path / "out")])
    assert str(raised.value) == \
        f"simulate: the writer process failed: {message}"
    assert forks == [1]
    assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]
    assert_no_child_left()


@pytest.mark.parametrize("command", ["generate", "simulate", "sweep",
                                     "search"])
def test_failed_rename_leaves_nothing_behind(tmp_path, monkeypatch, capsys,
                                             command):
    # the first rename fails, after every temporary is written
    replace, calls = os.replace, []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 1:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    scenario = write_scenario(tmp_path / "s.json")
    out = str(tmp_path / "a" / "b")  # an --out-dir that is new, two deep
    argv = {"generate": ["grid", "w=2", "h=2", "--out", str(tmp_path / "g")],
            "simulate": ["--scenario", str(scenario), "--out-dir", out],
            "sweep": ["--family", "cycle", "--sweep", "n=4..6", "--policies",
                      "lrv-v", "--horizon", "50", "--out-dir", out],
            "search": ["four-cycle-chain", "k=2", "--policy", "lrv-v",
                       "--horizon", "20", "--out", str(tmp_path / "w.txt")]}
    assert main([command, *argv[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and err.count("\n") == 1
    assert "No space left on device" in err and len(calls) == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["s.json"]


def test_writes_go_through_symlinks_and_keep_modes(tmp_path, capsys):
    real = tmp_path / "real.graph"
    real.write_text("stale\n")
    real.chmod(0o640)
    link = tmp_path / "link.graph"
    link.symlink_to(real)
    assert main(["generate", "path", "n=4", "--out", str(link)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {link}")
    assert link.is_symlink()
    assert load_graph(real).n == 4
    assert real.stat().st_mode & 0o777 == 0o640


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs the jobs
    in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cpus,size", [(8, 3), (2, 2), (1, None),
                                       (None, None)])
def test_sweep_pool_is_capped(tmp_path, monkeypatch, cpus, size):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("PATROLSIM_WORKERS", "1000")
    assert main(["sweep", "--family", "path", "--sweep", "n=4..6",
                 "--policies", "lrv-v", "--horizon", "10",
                 "--out-dir", str(tmp_path)]) == 0  # 3 jobs
    assert sizes == ([] if size is None else [size])
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("setup,message", [
    (lambda d: (d / "s.json").mkdir(), "Is a directory"),
    (lambda d: (d / "s.json").write_bytes(b'{"policy": "\xff"}'),
     "can't decode"),
    (lambda d: (write_scenario(d / "s.json",
                               graph={"file": str(d / "g.graph")}),
                (d / "g.graph").write_bytes(b"2 1\n0 1\n# name \xff\n")),
     "scenario: graph.file: "),
], ids=["scenario-dir", "scenario-not-utf8", "graph-file-not-utf8"])
def test_simulate_unreadable_scenario_exits_2(tmp_path, capsys, setup,
                                              message):
    setup(tmp_path)
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scenario: ") and message in err
    assert not (tmp_path / "o").exists()


def subprocess_env() -> dict:
    """This environment, with the patrolsim under test first on the path."""
    src = str(Path(patrolsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("text,message", [
    ("{", "scenario: invalid JSON: Expecting property name"),
    ("[1]", "scenario: top level must be an object"),
    ('{"graph": {}}', "scenario: missing key policy"),
], ids=["invalid", "not-an-object", "missing-key"])
def test_simulate_malformed_scenario_text_exits_2(tmp_path, capsys, text,
                                                  message):
    (tmp_path / "s.json").write_text(text)
    assert main(["simulate", "--scenario", str(tmp_path / "s.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_simulate_deeply_nested_scenario_exits_2(tmp_path):
    # json.loads raises RecursionError, not JSONDecodeError, on this; the
    # fuzz cannot reach it, since json.dumps fails at the same depth
    (tmp_path / "s.json").write_text("[" * 20000)
    proc = subprocess.run(
        [sys.executable, "-m", "patrolsim.cli", "simulate", "--scenario",
         str(tmp_path / "s.json"), "--out-dir", str(tmp_path / "o")],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    # one error line, no traceback
    assert proc.stderr == ("error: scenario: invalid JSON: nested too "
                           "deeply\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value", [
    ("--sweep", "n=5..3"), ("--seeds", "1..0"), ("--robots", "3..1"),
], ids=["sweep", "seeds", "robots"])
def test_sweep_empty_range_exits_2(tmp_path, capsys, flag, value):
    args = {"--family": "path", "--sweep": "n=4..5", "--policies": "lrv-v",
            "--horizon": "10", "--out-dir": str(tmp_path / "o")}
    args[flag] = value
    assert main(["sweep", *(tok for pair in args.items()
                            for tok in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: empty range ")
    assert err.rstrip().endswith(value.split("=")[-1] + "'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,outputs,link", [
    ("simulate", {"events": "x.csv", "metrics": "x.csv"}, None),
    ("simulate", {"events": "summary.json"}, None),
    ("simulate", {"summary": "sub/../metrics.csv"}, None),
    ("simulate", {"metrics": "link.csv"}, ("link.csv", "events.csv")),
    ("generate", {}, ("g.tri", "g")),
    ("sweep", {}, ("fits.txt", "sweep.csv")),
], ids=["same-name", "onto-default", "same-after-dotdot", "through-symlink",
        "generate-triangulation-onto-graph", "sweep-fits-onto-rows"])
def test_simulate_outputs_on_one_file_exit_2(tmp_path, monkeypatch, capsys,
                                             command, outputs, link):
    # link: (name, target) of a symlink made in the output directory; the
    # outputs are checked before any run
    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "_map", no_work)
    scenario = write_scenario(tmp_path / "s.json", outputs=outputs)
    out_dir = tmp_path / "o"
    if link is not None:
        out_dir.mkdir()
        (out_dir / link[0]).symlink_to(link[1])
    argv = {"simulate": ["--scenario", str(scenario),
                         "--out-dir", str(out_dir)],
            "generate": ["grid", "w=2", "h=2", "--out", str(out_dir / "g")],
            "sweep": ["--family", "cycle", "--sweep", "n=4..6", "--policies",
                      "lrv-v", "--horizon", "50", "--out-dir", str(out_dir)]}
    assert main([command, *argv[command]]) == 2
    assert capsys.readouterr().err.startswith(f"error: {command}: outputs ")
    assert sorted(p.name for p in tmp_path.rglob("*")) \
        == (["s.json"] if link is None else [link[0], "o", "s.json"])


def test_verify_in_process_matches_default(monkeypatch, capsys):
    runs = []
    for workers in ("1", None):
        if workers is None:
            monkeypatch.delenv("PATROLSIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("PATROLSIM_WORKERS", workers)
        code = main(["verify", "invariants"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][1].count("PASS ") == 3


@pytest.mark.parametrize("cpus", [16, 8, 2, 1, None])
def test_verify_pool_is_sized_by_checks_and_cpus(monkeypatch, capsys, cpus):
    from patrolsim import verify
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.delenv("PATROLSIM_WORKERS", raising=False)
    for name in verify.SUITES["theorems"]:
        monkeypatch.setattr(verify, name, lambda name=name: verify.CheckResult(
            name, name != "criterion_multi_robot_speedup", "stub"))
    monkeypatch.setattr(verify, "suite_invariants",
                        lambda: [verify.CheckResult("stub", True, "stub")])

    assert main(["verify", "theorems"]) == 1
    size = min(cpus or 1, 8)
    assert sizes == ([size] if size > 1 else [])
    assert capsys.readouterr().out.splitlines() == [
        f"{'FAIL' if name == 'criterion_multi_robot_speedup' else 'PASS'} "
        f"{name}: stub" for name in verify.SUITES["theorems"]]

    assert main(["verify", "invariants"]) == 0  # one check: no pool
    assert sizes == ([size] if size > 1 else [])


WORKERS_ARGV = pytest.mark.parametrize("argv", [
    ["verify", "invariants"],
    ["sweep", "--family", "path", "--sweep", "n=4..5", "--policies",
     "lrv-v", "--horizon", "10"],
    ["simulate", "--scenario", "s.json"],
    ["search", "four-cycle-chain", "k=2", "--policy", "lrv-v", "--horizon",
     "20", "--out", "w.txt"],
], ids=["verify", "sweep", "simulate", "search"])


def no_fork():
    raise AssertionError("forked")


@WORKERS_ARGV
def test_workers_not_an_integer_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("PATROLSIM_WORKERS", "x")
    monkeypatch.setattr(os, "fork", no_fork)
    write_scenario(tmp_path / "s.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "PATROLSIM_WORKERS" in err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


@pytest.mark.parametrize("value", ["0", "-1", "-3"])
@WORKERS_ARGV
def test_workers_below_1_exits_2(tmp_path, monkeypatch, capsys, argv, value):
    # a count below 1 used to run every job in this process, and simulate
    # read no count at all
    monkeypatch.setenv("PATROLSIM_WORKERS", value)
    monkeypatch.setattr(os, "fork", no_fork)
    write_scenario(tmp_path / "s.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: PATROLSIM_WORKERS must be at least 1, "
                   f"got '{value}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


# Run in a fresh interpreter, since pytest may have loaded any of these.
# Prints, after the import and after each command, which of them are loaded.
LOADED_SCRIPT = """
import contextlib, io, json, sys
import patrolsim.cli
WATCHED = ("multiprocessing", "concurrent.futures.process", "statistics",
           "patrolsim.verify")
loaded = {"import": [m for m in WATCHED if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = patrolsim.cli.main(argv)
    assert code == 0, (argv, code)
    loaded[argv[0]] = [m for m in WATCHED if m in sys.modules]
print(json.dumps(loaded))
"""


def test_commands_load_no_pool_or_unused_suite(tmp_path):
    write_scenario(tmp_path / "s.json")
    steps = [["generate", "path", "n=4", "--out", "g.graph"],
             ["simulate", "--scenario", "s.json", "--out-dir", "o"],
             ["search", "four-cycle-chain", "k=2", "--policy", "lrv-v",
              "--horizon", "20", "--out", "w.txt"],
             ["verify", "invariants"]]  # one check: no pool
    env = subprocess_env()
    env.pop("PATROLSIM_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT, json.dumps(steps)], env=env,
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import": [], "generate": [], "simulate": [], "search": [],
        # the suite brings statistics; no command brings a pool
        "verify": ["statistics", "patrolsim.verify"]}


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "s.json", "--out-dir", "o\0"],
    ["sweep", "--family", "path", "--sweep", "n=4..5", "--policies",
     "lrv-v", "--horizon", "10", "--out-dir", "\0"],
    ["simulate", "--scenario", "s\0.json"],
], ids=["simulate-out-dir", "sweep-out-dir", "simulate-scenario"])
def test_nul_in_path_argument_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_scenario(tmp_path / "s.json")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "NUL" in err
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
