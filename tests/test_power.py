"""Power enumeration over small connected classes and the validation
suites built on top of it.
"""

import io
import random

import pytest

import wlpower as wl
from wlpower.errors import BudgetError, ConfigurationError


def g6(g: wl.Graph) -> str:
    return wl.emit_graph6(g)


def test_connected_classes_counts():
    assert [len(wl.connected_classes(n)) for n in range(1, 6)] == [1, 2, 4, 10, 31]


def test_enumerate_power_k2_n4():
    report = wl.enumerate_power(wl.fwl_spec(2), 4)
    assert report.complete
    assert report.robber_win == [g6(wl.complete_graph(4))]
    assert len(report.cops_win) == 9
    assert not report.undecided
    stats = report.per_graph_stats[g6(wl.complete_graph(4))]
    assert stats["verdict"] == "robber" and stats["n"] == 4 and stats["states"] > 0


def test_enumerate_power_single_node():
    report = wl.enumerate_power(wl.local_fwl_spec(1), 1)
    assert report.cops_win == [g6(wl.empty_graph(1))]
    assert not report.robber_win


def test_enumerate_power_local1_finds_trees():
    report = wl.enumerate_power(wl.local_fwl_spec(1), 4)
    trees = {key for key in report.cops_win + report.robber_win
             if wl.treewidth(wl.parse_graph6(key)) <= 1}
    assert set(report.cops_win) == trees
    assert len(report.cops_win) == 5


def test_enumerate_power_undecided_path():
    report = wl.enumerate_power(wl.fwl_spec(2), 4, max_states=30)
    assert not report.complete
    assert report.undecided
    assert report.payload_dict()["complete"] is False
    out = report.to_json_dict()
    assert set(out) == {"payload", "telemetry"}
    some_key = report.undecided[0]
    assert out["telemetry"]["per_graph"][some_key]["verdict"] == "undecided"


def test_power_payload_deterministic():
    a = wl.enumerate_power(wl.fwl_spec(2), 4)
    b = wl.enumerate_power(wl.fwl_spec(2), 4)
    assert a.payload_bytes() == b.payload_bytes()
    # telemetry timings may differ between the runs; payload must not
    assert b"millis" not in a.payload_bytes()


def test_power_csv():
    report = wl.enumerate_power(wl.local_fwl_spec(1), 3)
    sink = io.StringIO()
    wl.write_power_csv(report, sink)
    lines = sink.getvalue().strip().splitlines()
    assert lines[0] == "graph6,n,verdict,states,millis"
    assert len(lines) == 1 + len(wl.connected_classes(3))


def test_compare_to_treewidth_k1():
    report = wl.compare_to_treewidth(1, 5)
    assert report.passed and report.cases_run == 31
    power = wl.enumerate_power(wl.fwl_spec(1), 5)
    trees = {g6(g) for g in wl.connected_classes(5) if wl.treewidth(g) <= 1}
    assert set(power.cops_win) == trees and len(trees) == 8


def test_compare_to_treewidth_k3():
    report = wl.compare_to_treewidth(3, 5)
    assert report.passed
    power = wl.enumerate_power(wl.fwl_spec(3), 5)
    assert power.robber_win == [g6(wl.complete_graph(5))]


def test_compare_to_treewidth_limits():
    with pytest.raises(ConfigurationError):
        wl.compare_to_treewidth(4, 5)
    with pytest.raises(ConfigurationError):
        wl.compare_to_treewidth(2, 8)


def test_validate_theorem2_small():
    for name in ("local_1fwl", "2fwl"):
        report = wl.validate_theorem2(wl.BUILTIN_SPECS[name], 3)
        assert report.suite == "theorem2" and report.passed
        # 4 classes: 4 permuted self-pairs + 6 distinct pairs
        assert report.cases_run == 10
    with pytest.raises(ConfigurationError):
        wl.validate_theorem2(wl.fwl_spec(2), 6)


def test_validate_soundness_small():
    report = wl.validate_soundness(wl.local_fwl_spec(1), 4, 5)
    assert report.passed
    cov = report.coverage
    assert {"undistinguished_pairs", "distinguished_pairs",
            "witness_hits", "witness_misses", "patterns"} <= set(cov)
    assert cov["patterns"] == 8  # cops-win classes are exactly the trees
    assert report.cases_run == cov["undistinguished_pairs"] + cov["distinguished_pairs"]
    assert cov["witness_hits"] + cov["witness_misses"] == cov["distinguished_pairs"]


def test_suites_report_merged_refinement_colors(monkeypatch):
    # Both suites read their refinement verdicts from one joint run; a
    # run that gives K1 and K2 (the first two classes) one color must
    # show up as a mismatch in each.
    original = wl.power.joint_graph_colors

    def merged(spec, *graphs):
        colors = list(original(spec, *graphs))
        assert wl.emit_graph6(graphs[0]) == "@" and wl.emit_graph6(graphs[1]) == "A_"
        colors[1] = colors[0]
        return tuple(colors)

    monkeypatch.setattr(wl.power, "joint_graph_colors", merged)
    soundness = wl.validate_soundness(wl.local_fwl_spec(1), 3, 3)
    assert {"g": "@", "h": "A_"} == {k: soundness.mismatches[0][k] for k in ("g", "h")}
    theorem2 = wl.validate_theorem2(wl.local_fwl_spec(1), 3)
    assert {"g": "@", "h": "A_", "distinguish": False, "game_winner": "spoiler"} in theorem2.mismatches


def test_suites_check_the_budget_before_the_joint_run(monkeypatch):
    # The deadline cannot interrupt the joint run, so an exhausted budget
    # must stop each suite before the run starts.
    def unreachable(spec, *graphs):
        raise AssertionError("joint run started after the budget ran out")

    def exhausted():
        raise BudgetError("time limit exceeded")

    monkeypatch.setattr(wl.power, "joint_graph_colors", unreachable)
    with pytest.raises(BudgetError):
        wl.validate_soundness(wl.local_fwl_spec(1), 3, 3, time_check=exhausted)
    with pytest.raises(BudgetError):
        wl.validate_theorem2(wl.local_fwl_spec(1), 3, time_check=exhausted)


def test_validate_soundness_budget():
    with pytest.raises(BudgetError):
        wl.validate_soundness(wl.fwl_spec(2), 3, 4, max_states=30)


def test_check_monotonicity_positive():
    report = wl.check_monotonicity(wl.drfwl2_spec(1), wl.drfwl2_spec(2), 4)
    assert report.suite == "monotonicity" and report.passed
    assert wl.check_monotonicity(wl.local_fwl_spec(2), wl.fwl_spec(2), 4).passed
    assert wl.check_monotonicity(wl.drfwl2_spec(1), wl.fwl_spec(2), 4).passed
    assert wl.check_monotonicity(wl.fwl_spec(2), wl.fwl_spec(2), 4).passed


def test_check_monotonicity_rejects_incomparable():
    with pytest.raises(ConfigurationError):
        wl.check_monotonicity(wl.local_fwl_spec(1), wl.fwl_spec(2), 4)
    with pytest.raises(ConfigurationError):
        wl.check_monotonicity(wl.local_fwl_spec(2), wl.drfwl2_spec(1), 4)
    with pytest.raises(ConfigurationError):
        # containment only goes one way
        wl.check_monotonicity(wl.fwl_spec(2), wl.drfwl2_spec(1), 4)


def test_validate_hom_closedness():
    report = wl.validate_hom_closedness(wl.fwl_spec(2), 3)
    assert report.suite == "hom_closed" and report.passed
    assert report.coverage["maps_checked"] > 0
    assert report.coverage["truncated"] is False
    assert wl.validate_hom_closedness(wl.drfwl2_spec(1), 3).passed


def test_validation_report_json():
    report = wl.validate_theorem2(wl.local_fwl_spec(1), 2)
    out = report.to_json_dict()
    assert out["suite"] == "theorem2"
    assert out["passed"] is True
    assert out["cases_run"] == report.cases_run
    assert out["mismatches"] == []
