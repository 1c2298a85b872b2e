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
    assert code == 2 and "requires" in err


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


def test_non_closed_spec_exits_2(capsys, tmp_path):
    # Distance-restricted pairs aggregated over all nodes: replacing a
    # pebble by a far node leaves the colored universe.
    bad = tmp_path / "bad.json"
    spec = wl.GfwlSpec(2, 1, (0, 2), (0, 1), wl.RSelector("distance_restricted", 1),
                       wl.FSelector("all_nodes"))
    bad.write_text(json.dumps(spec.to_json_dict()))
    for argv in (
        ["distinguish", "--spec", str(bad), "--g", "Bg", "--h", "Bw"],
        ["validate", "--suite", "theorem2", "--spec", str(bad), "--max-nodes", "3"],
    ):
        code, envelope, err = run_cli(capsys, argv)
        assert code == 2 and envelope is None
        assert err.startswith("error:") and "outside the colored tuple universe" in err


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
    entry.write_text("{ corrupt")
    code, envelope, err = run_cli(capsys, argv)
    assert code == 0 and envelope["payload"]["count"] == 0
    assert envelope["telemetry"]["cache"] == "miss"
    assert "corrupt" in err


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
