"""Power enumeration over small connected classes and the validation
suites built on top of it.
"""

import io
import multiprocessing
import random
import threading
import time

import pytest

import wlpower as wl
from wlpower import power
from wlpower.errors import BudgetError, ClosureError, ConfigurationError, deadline
from wlpower.games import DEFAULT_MAX_STATES


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
    report = wl.enumerate_power(wl.fwl_spec(2), 4, max_states=10)
    assert not report.complete
    assert report.undecided
    assert report.payload_dict()["complete"] is False
    some_key = report.undecided[0]
    assert report.per_graph_stats[some_key]["verdict"] == "undecided"


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


def test_compare_to_treewidth_incomplete_sweep_raises():
    with pytest.raises(BudgetError, match="power enumeration incomplete") as info:
        wl.compare_to_treewidth(2, 5, max_states=10)
    assert info.value.stats["undecided"] > 0


def test_validate_theorem2_small():
    for name in ("local_1fwl", "2fwl"):
        report = wl.validate_theorem2(wl.BUILTIN_SPECS[name], 3)
        assert report.suite == "theorem2" and report.passed
        # 4 classes: 4 permuted self-pairs + 6 distinct pairs
        assert report.cases_run == 10
    with pytest.raises(ConfigurationError):
        wl.validate_theorem2(wl.fwl_spec(2), 6)


@pytest.mark.parametrize("name", sorted(wl.BUILTIN_SPECS))
def test_validate_theorem2_builds_one_table_per_graph(name, monkeypatch):
    # One tuple table per class and per permuted copy serves the joint
    # refinement run and every pair's bijection game: ``f_set`` runs once
    # per colored tuple per graph, not once per pair, and once per graph
    # where every colored tuple aggregates over one set.
    spec = wl.BUILTIN_SPECS[name]
    calls = []
    original = wl.refinement.f_set

    def counting(selector, t, g, v):
        calls.append(v)
        return original(selector, t, g, v)

    monkeypatch.setattr(wl.refinement, "f_set", counting)
    report = wl.validate_theorem2(spec, 4, seed=3)
    assert report.passed and report.cases_run == 10 + 45
    shared = spec.f_selector.kind in ("all_nodes", "all_t_tuples")
    per_graph = sum(1 if shared else len(wl.r_set(spec.r_selector, spec.k, g)) for g in wl.connected_classes(4))
    assert len(calls) == 2 * per_graph  # the classes and their permuted copies


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

    def merged(spec, *graphs, **kwargs):
        colors = list(original(spec, *graphs, **kwargs))
        assert wl.emit_graph6(graphs[0]) == "@" and wl.emit_graph6(graphs[1]) == "A_"
        colors[1] = colors[0]
        return tuple(colors)

    monkeypatch.setattr(wl.power, "joint_graph_colors", merged)
    soundness = wl.validate_soundness(wl.local_fwl_spec(1), 3, 3)
    assert {"g": "@", "h": "A_"} == {k: soundness.mismatches[0][k] for k in ("g", "h")}
    theorem2 = wl.validate_theorem2(wl.local_fwl_spec(1), 3)
    assert {"g": "@", "h": "A_", "distinguish": False, "game_winner": "spoiler"} in theorem2.mismatches


def expired():
    """A run deadline that passed a second ago."""
    return deadline(1, time.perf_counter() - 1.0)


def test_suites_check_the_budget_before_refining(monkeypatch):
    # An expired deadline must stop each suite before its first
    # refinement round: the soundness suite in its pattern sweep, the
    # bijection suite while the joint run builds its tuple tables, which
    # check the deadline once per colored tuple.
    def unreachable(contexts):
        raise AssertionError("refinement started after the budget ran out")

    monkeypatch.setattr(wl.refinement, "_stabilize", unreachable)
    with expired():
        with pytest.raises(BudgetError):
            wl.validate_soundness(wl.local_fwl_spec(1), 3, 3)
        with pytest.raises(BudgetError):
            wl.validate_theorem2(wl.local_fwl_spec(1), 3)


def test_enumerate_power_timeout_aborts_the_sweep():
    # A state-budget blowout marks a class undecided; a timeout must not.
    with expired(), pytest.raises(BudgetError, match="time limit"):
        wl.enumerate_power(wl.fwl_spec(2), 4)
    assert wl.enumerate_power(wl.fwl_spec(2), 4).complete


# ---------------------------------------------------------------------------
# Sweeps split across forked workers, against the serial loop

needs_two_cpus = pytest.mark.skipif(power._usable_cpus() < 2, reason="a split sweep needs 2 usable CPUs")

NON_CLOSED_SPEC = wl.GfwlSpec(
    2, 1, (0, 2), (0, 1), wl.RSelector("distance_restricted", 1), wl.FSelector("all_nodes")
)


@pytest.fixture
def split_small(monkeypatch):
    """Split every sweep of at least 16 classes: n <= 5 (31 classes)
    goes to two workers, as n <= 7 (996 classes) does by default."""
    monkeypatch.setattr(power, "_CLASSES_PER_WORKER", 8)


def serial_report(spec, n_max, max_states=DEFAULT_MAX_STATES):
    """The report of a plain loop over ``cops_robber_wins``."""
    rows = []
    for g in wl.connected_classes(n_max):
        try:
            verdict = wl.cops_robber_wins(spec, g, max_states=max_states, want_certificate=False)
            rows.append((g6(g), verdict.winner, verdict.states_explored))
        except BudgetError as exc:
            rows.append((g6(g), "undecided", exc.stats.get("states", max_states)))
    by = {w: [key for key, winner, _ in rows if winner == w] for w in ("cops", "robber", "undecided")}
    return rows, wl.PowerReport(spec, n_max, by["cops"], by["robber"], by["undecided"], {})


def rows_of(report):
    return [(key, s["verdict"], s["states"]) for key, s in report.per_graph_stats.items()]


@needs_two_cpus
@pytest.mark.parametrize(
    "spec, n_max, max_states",
    [(wl.fwl_spec(2), 5, 30), (wl.drfwl2_spec(1), 5, DEFAULT_MAX_STATES), (wl.fwl_spec(1), 7, DEFAULT_MAX_STATES)],
    ids=["fwl_2-undecided", "drfwl2_1", "fwl_1-n7-default-split"],
)
def test_split_sweep_matches_serial_loop(request, spec, n_max, max_states):
    if n_max < 7:
        request.getfixturevalue("split_small")
    report = wl.enumerate_power(spec, n_max, max_states=max_states)
    rows, expected = serial_report(spec, n_max, max_states)
    assert report.workers >= 2
    assert rows_of(report) == rows
    assert report.payload_bytes() == expected.payload_bytes()
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_split_sweep_raises_the_serial_closure_error(split_small):
    with pytest.raises(ClosureError) as serial:
        serial_report(NON_CLOSED_SPEC, 5)
    with pytest.raises(ClosureError) as split:
        wl.enumerate_power(NON_CLOSED_SPEC, 5)
    # concurrent.futures chains a worker's exception to its remote traceback
    assert type(split.value.__cause__).__name__ == "_RemoteTraceback"
    assert str(split.value) == str(serial.value)
    assert split.value.violations == serial.value.violations
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_split_sweep_timeout_leaves_no_process(split_small):
    with expired(), pytest.raises(BudgetError, match="time limit") as info:
        wl.enumerate_power(wl.fwl_spec(2), 5)
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
    assert "elapsed_ms" in info.value.stats
    assert not multiprocessing.active_children()


@needs_two_cpus
def test_sweep_stays_serial_beside_another_thread(split_small):
    # Forking beside a running thread can copy a lock that thread holds.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        report = wl.enumerate_power(wl.fwl_spec(2), 5)
    finally:
        release.set()
        other.join()
    assert report.workers == 1
    assert report.payload_bytes() == serial_report(wl.fwl_spec(2), 5)[1].payload_bytes()


def test_small_sweeps_stay_serial():
    # Every sweep up to 6 nodes (143 classes) is too small to split.
    assert len(wl.connected_classes(6)) // power._CLASSES_PER_WORKER < 2
    assert wl.enumerate_power(wl.local_fwl_spec(1), 6).workers == 1


@pytest.mark.parametrize(
    "name, suite",
    [
        ("treewidth", lambda: wl.compare_to_treewidth(1, 5)),
        ("hom_count", lambda: wl.validate_soundness(wl.local_fwl_spec(1), 5, 4)),
    ],
    ids=["treewidth", "soundness"],
)
def test_suite_loops_check_the_deadline(monkeypatch, name, suite):
    # The first call of the loop's worker outlasts a 200 ms deadline; the
    # suite must stop at its next work item, not run to the end.  Small
    # inputs never reach the checks inside the workers themselves.
    suite()  # warm the class cache, so the set-up stays short
    original = getattr(wl.power, name)
    calls = []

    def slow_first(*args):
        if not calls:
            time.sleep(0.3)
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(wl.power, name, slow_first)
    with deadline(200, time.perf_counter()), pytest.raises(BudgetError, match="time limit"):
        suite()
    assert calls, "the deadline passed before the loop started"


def test_validate_soundness_budget():
    with pytest.raises(BudgetError):
        wl.validate_soundness(wl.fwl_spec(2), 3, 4, max_states=10)


def test_check_monotonicity_positive():
    report = wl.check_monotonicity(wl.drfwl2_spec(1), wl.drfwl2_spec(2), 4)
    assert report.suite == "monotonicity" and report.passed
    assert wl.check_monotonicity(wl.local_fwl_spec(2), wl.fwl_spec(2), 4).passed
    assert wl.check_monotonicity(wl.drfwl2_spec(1), wl.fwl_spec(2), 4).passed
    assert wl.check_monotonicity(wl.fwl_spec(2), wl.fwl_spec(2), 4).passed
    # at t = 1 all t-tuples are all nodes: the two specs are the same
    all_pairs = wl.GfwlSpec(2, 1, (0, 2), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_t_tuples"))
    assert wl.check_monotonicity(all_pairs, wl.fwl_spec(2), 4).passed
    assert wl.check_monotonicity(wl.fwl_spec(2), all_pairs, 4).passed


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
