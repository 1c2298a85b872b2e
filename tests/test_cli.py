"""Command-line harness: report envelopes, exit codes, caching, presets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wlpower as wl
import wlpower.cli as cli
from wlpower.errors import ConfigurationError
from wlpower.power import ValidationReport


@pytest.fixture(autouse=True)
def clean_cache_env(monkeypatch):
    monkeypatch.delenv("WLPOWER_CACHE", raising=False)


@pytest.fixture
def c6_str():
    return wl.emit_graph6(wl.cycle_graph(6))


@pytest.fixture
def two_c3_str():
    return wl.emit_graph6(wl.disjoint_union(wl.complete_graph(3), wl.complete_graph(3)))


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out else None
    return code, envelope, captured.err


# ---------------------------------------------------------------------------
# Presets and input loading


def test_preset_files_all_load():
    for name in wl.PRESET_SPECS:
        spec = cli.load_spec(name)
        assert isinstance(spec, wl.GfwlSpec)
    assert cli.load_spec("fwl_k") == wl.fwl_spec(2)
    assert cli.load_spec("local_fwl_k") == wl.local_fwl_spec(2)
    assert cli.load_spec("drfwl2_delta") == wl.drfwl2_spec(1)
    assert cli.load_spec("fwl_plus_k_t") == wl.fwl_plus_spec(2, 2)
    with pytest.raises(ConfigurationError):
        cli.load_spec("no_such_preset")


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(wl.local_fwl_spec(1).to_json_dict()))
    assert cli.load_spec(str(path)) == wl.local_fwl_spec(1)
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigurationError):
        cli.load_spec(str(bad))
    with pytest.raises(ConfigurationError):
        cli.load_spec(str(tmp_path / "missing.json"))


def test_load_graph_forms(tmp_path, c6_str):
    assert cli.load_graph(c6_str) == wl.cycle_graph(6)

    g6_file = tmp_path / "graph.g6"
    g6_file.write_text("\n" + c6_str + "\n")
    assert cli.load_graph(str(g6_file)) == wl.cycle_graph(6)

    json_file = tmp_path / "graph.json"
    json_file.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert cli.load_graph(str(json_file)) == wl.path_graph(3)

    with pytest.raises(wl.GraphFormatError, match="not found"):
        cli.load_graph("nosuch/file.g6")
    bad = tmp_path / "bad.g6"
    bad.write_text("###bad###\n")
    with pytest.raises(wl.GraphFormatError, match="bad.g6:1"):
        cli.load_graph(str(bad))


# ---------------------------------------------------------------------------
# Commands and exit codes


def test_distinguish_command(capsys, tmp_path, c6_str, two_c3_str):
    code, envelope, _ = run_cli(
        capsys, ["distinguish", "--spec", "fwl_k", "--g", c6_str, "--h", two_c3_str]
    )
    assert code == 0
    assert envelope["payload"]["distinguished"] is True
    assert envelope["telemetry"]["cache"] == "off"

    spec_file = tmp_path / "local1.json"
    spec_file.write_text(json.dumps(wl.local_fwl_spec(1).to_json_dict()))
    code, envelope, _ = run_cli(
        capsys,
        ["distinguish", "--spec", str(spec_file), "--g", c6_str, "--h", two_c3_str],
    )
    assert code == 0
    assert envelope["payload"]["distinguished"] is False


def test_cops_and_ef_commands(capsys, c6_str, two_c3_str):
    k4 = wl.emit_graph6(wl.complete_graph(4))
    code, envelope, _ = run_cli(capsys, ["cops", "--spec", "fwl_k", "--g", k4])
    assert code == 0
    assert envelope["payload"]["winner"] == "robber"
    assert envelope["telemetry"]["states_explored"] > 0

    code, envelope, _ = run_cli(
        capsys, ["ef", "--spec", "fwl_k", "--g", c6_str, "--h", two_c3_str]
    )
    assert code == 0
    assert envelope["payload"]["winner"] == "spoiler"


def test_hom_command(capsys, c6_str):
    k3 = wl.emit_graph6(wl.complete_graph(3))
    code, envelope, _ = run_cli(capsys, ["hom", "--pattern", c6_str, "--target", k3])
    assert code == 0
    assert envelope["payload"]["count"] == 66


def test_power_command(capsys, tmp_path):
    csv_path = tmp_path / "power.csv"
    code, envelope, _ = run_cli(
        capsys,
        ["power", "--spec", "fwl_k", "--max-nodes", "4", "--csv", str(csv_path)],
    )
    assert code == 0
    assert envelope["payload"]["robber_win"] == ["C~"]
    assert envelope["payload"]["complete"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("graph6,") and len(lines) == 11


def test_power_payload_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(
            ["power", "--spec", "drfwl2_delta", "--max-nodes", "4", "--out", str(out)]
        )
        assert code == 0
        outs.append(json.loads(out.read_text())["payload"])
    dumped = [json.dumps(p, sort_keys=True).encode() for p in outs]
    assert dumped[0] == dumped[1]


def test_exit_code_input_errors(capsys, c6_str):
    code, _, err = run_cli(
        capsys, ["distinguish", "--spec", "fwl_k", "--g", "###", "--h", c6_str]
    )
    assert code == 2 and "error:" in err

    code, _, err = run_cli(
        capsys, ["cops", "--spec", "/nonexistent/spec.json", "--g", c6_str]
    )
    assert code == 2 and "not found" in err

    code, _, err = run_cli(
        capsys, ["cops", "--spec", "fwl_k", "--g", c6_str, "--max-states", "0"]
    )
    assert code == 2 and "strictly positive" in err


MISTYPED_SPEC_FIELDS = [
    pytest.param({"k": "2"}, id="k-string"),
    pytest.param({"r": "all_k_tuples"}, id="r-string"),
    pytest.param({"i_seq": 2}, id="i_seq-integer"),
    pytest.param({"i_seq": [0, "1", 2]}, id="i_seq-string-entry"),
    pytest.param({"r": {"kind": "distance_restricted", "delta": "1"}}, id="delta-string"),
]


@pytest.mark.parametrize("field", MISTYPED_SPEC_FIELDS)
def test_mistyped_spec_field_exits_2(capsys, tmp_path, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**wl.fwl_spec(2).to_json_dict(), **field}))
    code, envelope, err = run_cli(capsys, ["cops", "--spec", str(path), "--g", "C~"])
    assert code == 2 and envelope is None and err.startswith("error:")


# JSON ``true`` where a spec wants an integer: each spec would equal its
# twin with ``1`` in that place but hash to a different cache key.
BOOLEAN_SPEC_FIELDS = [
    pytest.param(wl.fwl_spec(1), {"k": True}, id="k-true"),
    pytest.param(wl.fwl_spec(1), {"i_seq": [0, True]}, id="i_seq-true-entry"),
    pytest.param(wl.fwl_spec(1), {"t": True}, id="t-true"),
    pytest.param(wl.fwl_spec(2), {"j_seq": [0, True]}, id="j_seq-true-entry"),
    pytest.param(wl.drfwl2_spec(1), {"r": {"kind": "distance_restricted", "delta": True}}, id="r-delta-true"),
    pytest.param(wl.drfwl2_spec(1), {"f": {"kind": "delta_ball_intersection", "delta": True}}, id="f-delta-true"),
]


@pytest.mark.parametrize("spec, field", BOOLEAN_SPEC_FIELDS)
def test_boolean_spec_field_exits_2(capsys, tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec.to_json_dict(), **field}))
    code, envelope, err = run_cli(capsys, ["cops", "--spec", str(path), "--g", "C~"])
    assert code == 2 and envelope is None and err.startswith("error:")


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param({"n": 3, "edges": [[0, "1"]]}, id="string-endpoint"),
        pytest.param({"n": 3, "edges": [[0, 1.0]]}, id="float-endpoint"),
        pytest.param({"n": 3, "edges": [[0, True]]}, id="boolean-endpoint"),
        pytest.param({"n": True}, id="boolean-n"),
        pytest.param({"n": 3.0}, id="float-n"),
    ],
)
def test_non_integer_graph_json_exits_2(capsys, tmp_path, graph):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, envelope, err = run_cli(capsys, ["cops", "--spec", "fwl_k", "--g", str(path)])
    assert code == 2 and envelope is None and err.startswith("error:")


def test_exit_code_budget(capsys, c6_str):
    code, _, err = run_cli(
        capsys, ["cops", "--spec", "fwl_k", "--g", c6_str, "--max-states", "10"]
    )
    assert code == 3 and "budget" in err

    code, _, err = run_cli(
        capsys,
        ["power", "--spec", "fwl_k", "--max-nodes", "5", "--time-limit-ms", "1"],
    )
    assert code == 3 and "time limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--suite", "treewidth", "--k", "2", "--max-nodes", "6"],
        ["validate", "--suite", "hom_closed", "--spec", "fwl_k", "--max-nodes", "5"],
    ],
)
def test_validate_suite_time_limit_exits_3(capsys, argv):
    code, envelope, err = run_cli(capsys, argv + ["--time-limit-ms", "1"])
    assert code == 3 and "time limit" in err
    assert envelope is None


# Inputs that run far past 1 ms, so a deadline checked inside the work
# fires before it finishes.  "FWL3" stands for a spec file holding
# fwl_spec(3); E~~w is K6 (1,513 pursuit states), E~~o is K6 minus an
# edge, F~~~w and G~~~~{ are K7 and K8.  The bijection game runs on an
# isomorphic pair, whose root Hall's condition cannot cut (E~~o against
# itself: 47,937 states, ~0.6 s); K6 against E~~o is cut at the root and
# solved in one state.
TIME_LIMIT_CASES = {
    "distinguish": ["--spec", "FWL3", "--g", "E~~w", "--h", "E~~o"],
    "cops": ["--spec", "FWL3", "--g", "E~~w"],
    "ef": ["--spec", "FWL3", "--g", "E~~o", "--h", "E~~o"],
    "hom": ["--pattern", "F~~~w", "--target", "G~~~~{"],
    "power": ["--spec", "fwl_k", "--max-nodes", "5"],
}


@pytest.fixture
def fwl3_file(tmp_path):
    path = tmp_path / "fwl3.json"
    path.write_text(json.dumps(wl.fwl_spec(3).to_json_dict()))
    return str(path)


@pytest.mark.parametrize("command", sorted(TIME_LIMIT_CASES))
def test_time_limit_exits_3(capsys, fwl3_file, command):
    # Every command but validate (test_validate_suite_time_limit_exits_3)
    # must have a case here.
    assert set(TIME_LIMIT_CASES) == set(cli.COMMANDS) - {"validate"}
    complete = [wl.emit_graph6(wl.complete_graph(n)) for n in (6, 7, 8)]
    assert complete == ["E~~w", "F~~~w", "G~~~~{"]
    args = [fwl3_file if arg == "FWL3" else arg for arg in TIME_LIMIT_CASES[command]]
    code, envelope, err = run_cli(capsys, [command, *args, "--time-limit-ms", "1"])
    assert code == 3 and "time limit" in err
    assert envelope is None


def test_time_limit_is_scoped_to_one_run(capsys):
    # In-process callers (the benchmark's CLI workload among them) run
    # many commands in one process; a deadline must end with its run.
    argv = ["hom", *TIME_LIMIT_CASES["hom"]]
    code, envelope, err = run_cli(capsys, argv + ["--time-limit-ms", "1"])
    assert code == 3 and "time limit" in err and envelope is None
    code, envelope, _ = run_cli(capsys, argv)
    assert code == 0 and envelope["payload"]["count"] == 40320


def test_cops_solver_counters_in_telemetry(capsys, c6_str):
    code, envelope, _ = run_cli(capsys, ["cops", "--spec", "fwl_k", "--g", c6_str])
    assert code == 0
    telemetry, payload = envelope["telemetry"], envelope["payload"]
    counters = ("generate_ms", "attract_ms", "edges", "component_table_hits")
    assert all(name in telemetry for name in counters)
    assert not any(name in payload for name in counters)
    assert telemetry["states_explored"] > 0
    assert 0 < telemetry["component_table_hits"] < telemetry["edges"]
    assert telemetry["generate_ms"] >= 0 and telemetry["attract_ms"] >= 0
    verdict = wl.cops_robber_wins(wl.fwl_spec(2), wl.cycle_graph(6))
    assert set(verdict.stats) == set(counters)
    assert set(verdict.to_json_dict(include_certificate=True)) == {
        "winner", "states_explored", "certificate",
    }


def test_ef_solver_counters_in_telemetry(capsys, c6_str, two_c3_str):
    code, envelope, _ = run_cli(
        capsys, ["ef", "--spec", "fwl_k", "--g", c6_str, "--h", two_c3_str]
    )
    assert code == 0
    telemetry, payload = envelope["telemetry"], envelope["payload"]
    counters = ("generate_ms", "fixpoint_ms", "matching_calls", "cut_states")
    assert all(name in telemetry for name in counters)
    assert not any(name in payload for name in counters)
    assert telemetry["states_explored"] > 0
    assert telemetry["generate_ms"] >= 0 and telemetry["fixpoint_ms"] >= 0
    # fwl_k is fwl_spec(2), under which Spoiler wins on C6 vs 2C3: some
    # putting states fail Hall's condition, and the fixpoint matches others
    assert 0 < telemetry["cut_states"] < telemetry["states_explored"]
    assert 0 < telemetry["matching_calls"] < telemetry["states_explored"]
    verdict = wl.spoiler_wins(wl.fwl_spec(2), wl.cycle_graph(6), wl.parse_graph6(two_c3_str))
    assert set(verdict.stats) == set(counters)
    assert set(verdict.to_json_dict(include_certificate=True)) == {
        "winner", "states_explored", "certificate",
    }


def test_module_entry_point():
    # ``python -m wlpower`` runs the CLI without re-importing wlpower.cli
    # as a second module (which prints a RuntimeWarning).
    src = str(Path(wl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-W", "default", "-m", "wlpower", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: wlpower" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_power_incomplete_exits_3(capsys):
    code, envelope, _ = run_cli(
        capsys, ["power", "--spec", "fwl_k", "--max-nodes", "4", "--max-states", "30"]
    )
    assert code == 3
    assert envelope["payload"]["complete"] is False
    assert envelope["payload"]["undecided"]


def test_main_builds_no_parser(capsys, monkeypatch, c6_str):
    # The parser is built once, at import; a call only parses.
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, envelope, _ = run_cli(capsys, ["cops", "--spec", "fwl_k", "--g", c6_str])
    assert code == 0 and envelope["payload"]["winner"] in ("cops", "robber")


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["distinguish", "--spec", "fwl_k"])  # missing graphs
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Validation suites through the CLI


def test_validate_treewidth_suite(capsys):
    code, envelope, _ = run_cli(
        capsys, ["validate", "--suite", "treewidth", "--k", "1", "--max-nodes", "4"]
    )
    assert code == 0
    assert envelope["payload"]["passed"] is True
    assert envelope["payload"]["suite"] == "treewidth"


def test_validate_theorem2_suite(capsys, tmp_path):
    spec_file = tmp_path / "local1.json"
    spec_file.write_text(json.dumps(wl.local_fwl_spec(1).to_json_dict()))
    code, envelope, _ = run_cli(
        capsys,
        ["validate", "--suite", "theorem2", "--spec", str(spec_file), "--max-nodes", "3"],
    )
    assert code == 0 and envelope["payload"]["passed"] is True


def test_validate_monotonicity_suite(capsys, tmp_path):
    small = tmp_path / "small.json"
    small.write_text(json.dumps(wl.drfwl2_spec(1).to_json_dict()))
    large = tmp_path / "large.json"
    large.write_text(json.dumps(wl.fwl_spec(2).to_json_dict()))
    code, envelope, _ = run_cli(
        capsys,
        [
            "validate", "--suite", "monotonicity",
            "--spec-small", str(small), "--spec-large", str(large),
            "--max-nodes", "4",
        ],
    )
    assert code == 0 and envelope["payload"]["passed"] is True

    code, _, err = run_cli(capsys, ["validate", "--suite", "monotonicity"])
    assert code == 2 and err == "error: suite monotonicity requires --spec-small/--spec-large\n"


def test_validate_missing_spec_flag(capsys):
    code, _, err = run_cli(capsys, ["validate", "--suite", "theorem2"])
    assert code == 2 and "--spec" in err


def test_validate_failure_exits_1(capsys, monkeypatch):
    def fake_suite(spec, max_nodes, **budgets):
        return ValidationReport(suite="theorem2", cases_run=1, mismatches=[{"bad": True}])

    monkeypatch.setattr(cli, "validate_theorem2", fake_suite)
    code, envelope, _ = run_cli(
        capsys, ["validate", "--suite", "theorem2", "--spec", "fwl_k"]
    )
    assert code == 1
    assert envelope["payload"]["passed"] is False


# Distance-restricted pairs aggregated over all nodes: replacing a pebble
# by a far node leaves the colored universe.
NON_CLOSED_SPEC = wl.GfwlSpec(
    2, 1, (0, 2), (0, 1), wl.RSelector("distance_restricted", 1), wl.FSelector("all_nodes")
)


def test_non_closed_spec_exits_2(capsys, tmp_path):
    # Refinement and both games read the tuple table that checks closure,
    # so every command that runs them rejects the spec and caches nothing.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NON_CLOSED_SPEC.to_json_dict()))
    cache = tmp_path / "cache"
    for argv in (
        ["distinguish", "--spec", str(bad), "--g", "Bg", "--h", "Bw"],
        ["validate", "--suite", "theorem2", "--spec", str(bad), "--max-nodes", "3"],
        ["cops", "--spec", str(bad), "--g", "Cr"],
        ["ef", "--spec", str(bad), "--g", "Cr", "--h", "Cr"],
        ["power", "--spec", str(bad), "--max-nodes", "4"],
        ["validate", "--suite", "monotonicity", "--spec-small", str(bad), "--spec-large", str(bad)],
    ):
        code, envelope, err = run_cli(capsys, argv + ["--cache-dir", str(cache)])
        assert code == 2 and envelope is None, argv
        assert err.startswith("error:") and "outside the colored tuple universe" in err
    assert not cache.exists() or not cache_files(cache)


def test_hom_closed_suite_ignores_replacement_closure(capsys, tmp_path):
    # The hom_closed suite checks each selector on its own, not the
    # replacements of one by the other, so the non-closed spec passes.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NON_CLOSED_SPEC.to_json_dict()))
    code, envelope, _ = run_cli(capsys, ["validate", "--suite", "hom_closed", "--spec", str(bad)])
    assert code == 0 and envelope["payload"]["passed"] is True


# ---------------------------------------------------------------------------
# Cache behaviour


def cache_files(path):
    return sorted(p for p in path.iterdir() if p.suffix == ".json")


def test_cache_hit_and_permutation_insensitivity(capsys, tmp_path):
    cache = tmp_path / "cache"
    c5 = wl.cycle_graph(5)
    shuffled = c5.permuted([2, 0, 3, 1, 4])
    assert wl.emit_graph6(c5) != wl.emit_graph6(shuffled)

    argv = ["cops", "--spec", "fwl_k", "--cache-dir", str(cache)]
    code, envelope, _ = run_cli(capsys, argv + ["--g", wl.emit_graph6(c5)])
    assert code == 0 and envelope["telemetry"]["cache"] == "miss"
    assert len(cache_files(cache)) == 1

    code, envelope, _ = run_cli(capsys, argv + ["--g", wl.emit_graph6(c5)])
    assert code == 0 and envelope["telemetry"]["cache"] == "hit"

    # isomorphic input resolves to the same key: still one entry, still a hit
    code, envelope, _ = run_cli(capsys, argv + ["--g", wl.emit_graph6(shuffled)])
    assert code == 0 and envelope["telemetry"]["cache"] == "hit"
    assert len(cache_files(cache)) == 1


def test_cache_hit_still_writes_csv(capsys, tmp_path):
    # The CSV rows come from per-graph telemetry, which the cache does not
    # hold, so a run that asks for --csv computes instead of reading it.
    argv = ["power", "--spec", "fwl_k", "--max-nodes", "3", "--cache-dir", str(tmp_path / "cache")]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0 and first["telemetry"]["cache"] == "miss"
    csv_path = tmp_path / "p.csv"
    code, second, _ = run_cli(capsys, argv + ["--csv", str(csv_path)])
    assert code == 0 and second["payload"] == first["payload"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("graph6,") and len(lines) == 1 + len(wl.connected_classes(3))
    code, third, _ = run_cli(capsys, argv)
    assert code == 0 and third["telemetry"]["cache"] == "hit"


def test_cache_key_sensitive_to_budget_and_spec(capsys, tmp_path):
    cache = tmp_path / "cache"
    k4 = wl.emit_graph6(wl.complete_graph(4))
    base = ["cops", "--g", k4, "--cache-dir", str(cache)]
    run_cli(capsys, base + ["--spec", "fwl_k"])
    run_cli(capsys, base + ["--spec", "fwl_k", "--max-states", "777777"])
    run_cli(capsys, base + ["--spec", "local_fwl_k"])
    assert len(cache_files(cache)) == 3


def test_cache_corrupt_entry_recomputes(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = [
        "hom", "--pattern", wl.emit_graph6(wl.complete_graph(3)),
        "--target", wl.emit_graph6(wl.cycle_graph(6)),
        "--cache-dir", str(cache),
    ]
    code, envelope, _ = run_cli(capsys, argv)
    assert code == 0 and envelope["payload"]["count"] == 0
    entry = cache_files(cache)[0]
    # Unparsable JSON, and a well-formed record whose payload is no object.
    for text in ("{ corrupt", json.dumps({"version": cli.__version__, "payload": [1, 2]})):
        entry.write_text(text)
        code, envelope, err = run_cli(capsys, argv)
        assert code == 0 and envelope["payload"]["count"] == 0
        assert envelope["telemetry"]["cache"] == "miss"
        assert "corrupt" in err


def test_cache_write_failure_warns(capsys, tmp_path):
    blocker = tmp_path / "F"
    blocker.write_text("")  # a file where the cache directory should go
    argv = ["cops", "--spec", "fwl_k", "--g", "C~", "--cache-dir", str(blocker)]
    code, envelope, err = run_cli(capsys, argv)
    assert code == 0 and envelope["payload"]["winner"] == "robber"
    assert envelope["telemetry"]["cache"] == "miss"
    assert err.startswith("warning:") and "error:" not in err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_report_path_exits_2(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "report"
    argv = ["power", "--spec", "fwl_k", "--max-nodes", "3", flag, str(target)]
    code, envelope, err = run_cli(capsys, argv)
    assert code == 2 and err.startswith("error:") and envelope is None
    assert not target.parent.exists()


def test_cache_version_gate(tmp_path, monkeypatch):
    cli.cache_store(str(tmp_path), "somekey", {"x": 1})
    assert cli.cache_lookup(str(tmp_path), "somekey") == {"x": 1}
    monkeypatch.setattr(cli, "__version__", "99.0")
    assert cli.cache_lookup(str(tmp_path), "somekey") is None


def test_cache_env_var_overrides(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "env_cache"
    monkeypatch.setenv("WLPOWER_CACHE", str(env_cache))
    argv = [
        "hom", "--pattern", wl.emit_graph6(wl.complete_graph(2)),
        "--target", wl.emit_graph6(wl.cycle_graph(4)),
    ]
    code, envelope, _ = run_cli(capsys, argv)
    assert code == 0 and envelope["payload"]["count"] == 8
    assert envelope["telemetry"]["cache"] == "miss"
    assert len(cache_files(env_cache)) == 1
    code, envelope, _ = run_cli(capsys, argv)
    assert envelope["telemetry"]["cache"] == "hit"
