"""Acceptance gate: one test per release criterion, each appending a
pass/fail line to the terminal summary.

Budgets are asserted where the criterion states one; every suite here
runs single-threaded on desk-scale inputs.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import wlpower as wl
import wlpower.cli as cli

SEED = 20260814

@contextmanager
def criterion(log: list, num: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        log.append(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    log.append(f"criterion {num} ({label}): PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num} exceeded {budget_s}s"


def adjacency(g: wl.Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edge_set:
        a[u, v] = a[v, u] = 1
    return a


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> wl.Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return wl.Graph(n, edges)


def shuffled(g: wl.Graph, rng: random.Random) -> wl.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.permuted(perm)


def test_criterion_1_treewidth_characterization(acceptance_log):
    with criterion(acceptance_log, 1, "cops-win equals treewidth <= k", budget_s=600):
        for k in (1, 2):
            report = wl.compare_to_treewidth(k, 7)
            assert report.cases_run == 996  # exhaustive through n = 7
            assert report.passed, report.mismatches


def test_criterion_2_game_refinement_equivalence(acceptance_log):
    with criterion(acceptance_log, 2, "distinguish equals spoiler win", budget_s=900):
        for spec in wl.BUILTIN_SPECS.values():
            report = wl.validate_theorem2(spec, 4)
            assert report.passed, report.mismatches
        report = wl.validate_theorem2(wl.BUILTIN_SPECS["local_1fwl"], 5)
        assert report.cases_run == 496
        assert report.passed, report.mismatches


def test_criterion_3_soundness(acceptance_log):
    with criterion(acceptance_log, 3, "undistinguished pairs count alike", budget_s=600):
        for spec in wl.BUILTIN_SPECS.values():
            report = wl.validate_soundness(spec, 5, 6)
            assert report.passed, report.mismatches
            assert report.cases_run == 465  # distinct unordered pairs


def test_criterion_4_known_pair(acceptance_log, c6, two_c3):
    with criterion(acceptance_log, 4, "C6 vs 2*C3 with K3 witness"):
        assert not wl.distinguish(wl.BUILTIN_SPECS["local_1fwl"], c6, two_c3)
        assert wl.distinguish(wl.BUILTIN_SPECS["2fwl"], c6, two_c3)
        k3 = wl.complete_graph(3)
        counts = (wl.hom_count(k3, c6), wl.hom_count(k3, two_c3))
        assert counts == (0, 12)
        traces = (
            int(np.trace(np.linalg.matrix_power(adjacency(c6), 3))),
            int(np.trace(np.linalg.matrix_power(adjacency(two_c3), 3))),
        )
        assert traces == counts


def test_criterion_5_hom_count_oracle(acceptance_log):
    with criterion(acceptance_log, 5, "cycle counts match adjacency traces"):
        rng = random.Random(SEED)
        graphs = [random_graph(rng, rng.randint(1, 8)) for _ in range(100)]
        for g in graphs:
            a = adjacency(g)
            for k in range(3, 9):
                expected = int(np.trace(np.linalg.matrix_power(a, k))) if g.n else 0
                assert wl.hom_count(wl.cycle_graph(k), g) == expected
        for g in graphs[:10]:
            pattern = wl.cycle_graph(4)
            rooted = sum(
                wl.rooted_hom_count(pattern, {0: v}, g) for v in range(g.n)
            )
            assert rooted == wl.hom_count(pattern, g)


def test_criterion_6_monotonicity(acceptance_log):
    with criterion(acceptance_log, 6, "selector growth only adds cops wins"):
        chains = [
            (wl.drfwl2_spec(1), wl.drfwl2_spec(2)),
            (wl.drfwl2_spec(2), wl.fwl_spec(2)),
            (wl.local_fwl_spec(2), wl.fwl_spec(2)),
        ]
        for small, large in chains:
            report = wl.check_monotonicity(small, large, 6)
            assert report.passed, report.mismatches


def test_criterion_7_permutation_invariance(acceptance_log):
    with criterion(acceptance_log, 7, "verdicts invariant under relabeling"):
        rng = random.Random(SEED + 7)
        for spec in wl.BUILTIN_SPECS.values():
            for _ in range(200):
                g = random_graph(rng, rng.randint(1, 6))
                h = g if rng.random() < 0.3 else random_graph(rng, rng.randint(1, 6))
                assert wl.distinguish(spec, g, h) == wl.distinguish(
                    spec, shuffled(g, rng), shuffled(h, rng)
                )
            for _ in range(200):
                g = random_graph(rng, rng.randint(1, 6))
                base = wl.cops_robber_wins(spec, g, want_certificate=False)
                moved = wl.cops_robber_wins(
                    spec, shuffled(g, rng), want_certificate=False
                )
                assert base.winner == moved.winner


def test_criterion_8_power_determinism(acceptance_log, tmp_path):
    with criterion(acceptance_log, 8, "power payload byte-identical"):
        for spec in wl.BUILTIN_SPECS.values():
            a = wl.enumerate_power(spec, 5)
            b = wl.enumerate_power(spec, 5)
            assert a.payload_bytes() == b.payload_bytes()
        payloads = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            code = cli.main(
                ["power", "--spec", "fwl_k", "--max-nodes", "4", "--out", str(out)]
            )
            assert code == 0
            payloads.append(json.loads(out.read_text())["payload"])
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(
            payloads[1], sort_keys=True
        )
