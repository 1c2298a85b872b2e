"""Counting-power enumeration and cross-route validation suites.

The core meta-procedure runs the pursuit-game solver over every
connected isomorphism class up to a node bound and splits the classes
into Cops-win patterns (countable by the refinement spec) and
Robber-win ones.  The validation suites cross-check that power set
against independent routes: exact treewidth for the full k-tuple specs,
the bijection game for pair distinguishing, homomorphism counts for
soundness, and structural selector containment for monotonicity.

The classes of a large sweep are solved in forked worker processes, one
per usable CPU and at least ``_CLASSES_PER_WORKER`` classes each, and
their rows are put back in class order, so a report, and any exception
raised, is the one the serial loop gives.  A sweep stays serial on one
CPU, where ``fork`` is missing, while another thread runs, and below
``2 * _CLASSES_PER_WORKER`` classes (every sweep up to 6 nodes), where
starting a worker would cost more than it saves.
"""

from __future__ import annotations

import csv
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BudgetError, ConfigurationError, check_deadline, deadline, run_deadline
from .games import DEFAULT_MAX_STATES, cops_robber_wins, spoiler_wins
from .graphs import (
    Graph,
    emit_graph6,
    enumerate_connected_graphs,
    hom_count,
    parse_graph6,
    treewidth,
)
# ``distinguish`` is not called here any more.  It stays a module
# attribute because the benchmark's span tracer (``perfbench/spans.py``)
# wraps ``wlpower.power.distinguish``, and ``--trace 1`` fails without it.
from .refinement import (  # noqa: F401
    GfwlSpec,
    _SHARED_F_KINDS,
    _tables_of,
    distinguish,
    fwl_spec,
    joint_graph_colors,
)
from .selectors import FSelector, RSelector, check_hom_closed

#: Fewest classes per worker process in a split sweep.  A forked worker
#: spends 20-30 ms before its first solve, so a sweep splits only when
#: every worker gets at least this many classes.
_CLASSES_PER_WORKER = 128

#: Contiguous chunks per worker, so a worker that drew cheap classes
#: takes the next chunk while the others finish theirs.
_CHUNKS_PER_WORKER = 4


@lru_cache(maxsize=8)
def connected_classes(n_max: int) -> tuple[Graph, ...]:
    """All connected isomorphism classes with 1..n_max nodes, in the
    enumerator's deterministic (node count, canonical form) order."""
    return tuple(enumerate_connected_graphs(n_max))


@dataclass
class PowerReport:
    """Partition of the connected classes up to ``n_max`` by game verdict.

    ``undecided`` holds classes whose solve blew the state budget; a
    report is only ``complete`` when it is empty, and the payload always
    carries the flag so truncation is loud.
    """

    spec: GfwlSpec
    n_max: int
    cops_win: list[str]
    robber_win: list[str]
    undecided: list[str]
    per_graph_stats: dict[str, dict]
    workers: int = 1  # processes that solved the sweep; 1 when serial

    @property
    def complete(self) -> bool:
        return not self.undecided

    def payload_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "n_max": self.n_max,
            "cops_win": list(self.cops_win),
            "robber_win": list(self.robber_win),
            "undecided": list(self.undecided),
            "complete": self.complete,
        }

    def payload_bytes(self) -> bytes:
        return json.dumps(self.payload_dict(), sort_keys=True, separators=(",", ":")).encode()


def write_power_csv(report: PowerReport, fileobj) -> None:
    """One row per enumerated class: graph6, n, verdict, states, millis."""
    writer = csv.writer(fileobj)
    writer.writerow(["graph6", "n", "verdict", "states", "millis"])
    for key, stats in report.per_graph_stats.items():
        writer.writerow([key, stats["n"], stats["verdict"], stats["states"], stats["millis"]])


@dataclass
class ValidationReport:
    """Outcome of one validation suite.  Empty mismatches ⇔ passed;
    ``coverage`` carries non-failure bookkeeping such as witness hits."""

    suite: str
    cases_run: int
    mismatches: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "mismatches": self.mismatches,
            "passed": self.passed,
            "coverage": self.coverage,
        }


def enumerate_power(
    spec: GfwlSpec,
    n_max: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> PowerReport:
    """Solve the pursuit game on every connected class up to ``n_max``.

    Per-graph state-budget blowouts are recorded as undecided instead
    of aborting the sweep; a passed run deadline aborts the whole sweep.
    A large sweep runs in worker processes with the same result.
    """
    rows, workers = _solve_sweep(spec, connected_classes(n_max), max_states)
    verdicts: dict[str, list[str]] = {"cops": [], "robber": [], "undecided": []}
    stats: dict[str, dict] = {}
    for key, n, winner, states, millis in rows:
        verdicts[winner].append(key)
        stats[key] = {"n": n, "verdict": winner, "states": states, "millis": millis}
    return PowerReport(
        spec=spec,
        n_max=n_max,
        cops_win=verdicts["cops"],
        robber_win=verdicts["robber"],
        undecided=verdicts["undecided"],
        per_graph_stats=stats,
        workers=workers,
    )


def _solve_classes(spec: GfwlSpec, graphs, max_states: int) -> list[tuple]:
    """One ``(graph6, n, verdict, states, millis)`` row per graph, in order."""
    rows = []
    for g in graphs:
        start = time.perf_counter()
        try:
            verdict = cops_robber_wins(spec, g, max_states=max_states, want_certificate=False)
            winner, states = verdict.winner, verdict.states_explored
        except BudgetError as exc:
            check_deadline()  # a timeout is no state-budget blowout
            winner, states = "undecided", exc.stats.get("states", max_states)
        millis = int(round((time.perf_counter() - start) * 1000))
        rows.append((emit_graph6(g), g.n, winner, states, millis))
    return rows


def _solve_chunk(spec: GfwlSpec, graphs, max_states: int, limit: tuple) -> list[tuple]:
    """A worker's share of a sweep, under the parent's run deadline."""
    with deadline(*limit):
        return _solve_classes(spec, graphs, max_states)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _solve_sweep(spec: GfwlSpec, classes: tuple[Graph, ...], max_states: int) -> tuple[list, int]:
    """``_solve_classes`` over ``classes``, split across forked workers
    when the sweep is large enough; returns the rows and the number of
    processes that solved them."""
    workers = min(_usable_cpus(), len(classes) // _CLASSES_PER_WORKER)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return _solve_classes(spec, classes, max_states), 1
    # Imported here: they add 15-20 ms to ``import wlpower``.  ``fork``
    # starts a worker in milliseconds, where ``spawn`` takes 300 ms; with
    # no other thread alive, forking is safe.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    parts = workers * _CHUNKS_PER_WORKER
    bounds = [len(classes) * i // parts for i in range(parts + 1)]
    chunks = [classes[a:b] for a, b in zip(bounds, bounds[1:])]
    limit = run_deadline()
    context = multiprocessing.get_context("fork")
    # ``map`` yields the chunks in order and raises the first chunk's
    # exception, cancelling the chunks not started; leaving the block
    # joins every worker.
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        results = pool.map(_solve_chunk, [spec] * parts, chunks, [max_states] * parts, [limit] * parts)
        rows = [row for chunk in results for row in chunk]
    return rows, workers


def compare_to_treewidth(
    k: int,
    n_max: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ValidationReport:
    """Check Cops-win under the full k-tuple spec ⇔ treewidth ≤ k, for
    every connected class up to ``n_max`` nodes.  The verdicts come from
    one :func:`enumerate_power` sweep, which must be complete."""
    if k not in (1, 2, 3):
        raise ConfigurationError("k must be 1, 2, or 3 for the treewidth suite")
    if n_max > 7:
        raise ConfigurationError("treewidth suite is budgeted for n_max <= 7")
    power = enumerate_power(fwl_spec(k), n_max, max_states=max_states)
    if not power.complete:
        raise BudgetError("power enumeration incomplete", stats={"undecided": len(power.undecided)})
    classes = connected_classes(n_max)
    mismatches = []
    for g, (key, stats) in zip(classes, power.per_graph_stats.items()):
        check_deadline()
        width = treewidth(g)
        if (stats["verdict"] == "cops") != (width <= k):
            mismatches.append({"graph6": key, "winner": stats["verdict"], "treewidth": width})
    return ValidationReport(suite="treewidth", cases_run=len(classes), mismatches=mismatches)


def _permuted_copy(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.permuted(perm)


def validate_theorem2(
    spec: GfwlSpec,
    n_max: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    seed: int = 0,
) -> ValidationReport:
    """Check distinguish(g, h) == first player wins the bijection game,
    over all unordered pairs of connected classes up to ``n_max`` plus
    one permuted equal-class pair per class.  One tuple table per class
    and per permuted copy serves both sides: the refinement side is one
    joint run over them, and the game side is solved per pair on the
    pair's two tables."""
    if n_max > 5:
        raise ConfigurationError("bijection-game suite is budgeted for n_max <= 5")
    classes = connected_classes(n_max)
    rng = random.Random(seed)
    copies = [_permuted_copy(g, rng) for g in classes]
    graphs = [*classes, *copies]
    tables = _tables_of(spec, graphs, None)
    colors = joint_graph_colors(spec, *graphs, tables=tables)
    count = len(classes)
    pairs: list[tuple[int, int]] = []  # indices into ``graphs``
    for i in range(count):
        pairs.append((i, count + i))
        pairs.extend((i, j) for j in range(i + 1, count))
    mismatches = []
    for a, b in pairs:
        g, h = graphs[a], graphs[b]
        refined = colors[a] != colors[b]
        game = spoiler_wins(
            spec, g, h, max_states=max_states, want_certificate=False, tables=(tables[a], tables[b])
        )
        if refined != (game.winner == "spoiler"):
            mismatches.append(
                {
                    "g": emit_graph6(g),
                    "h": emit_graph6(h),
                    "distinguish": refined,
                    "game_winner": game.winner,
                }
            )
    return ValidationReport(suite="theorem2", cases_run=len(pairs), mismatches=mismatches)


def validate_soundness(
    spec: GfwlSpec,
    n_max_pairs: int,
    n_max_patterns: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ValidationReport:
    """Check the counting-power sound direction at desk scale.

    Undistinguished pairs must agree on homomorphism counts from every
    Cops-win pattern (a disagreement is a hard mismatch).  For
    distinguished pairs the suite searches the Cops-win patterns in
    ascending order for a witness with differing counts; a miss only
    lowers coverage, since witnesses may exceed the pattern cap.

    The refinement colors come from one joint run over all classes, and
    each homomorphism count is computed at most once, when first needed.
    """
    power = enumerate_power(spec, n_max_patterns, max_states=max_states)
    if not power.complete:
        raise BudgetError("pattern enumeration incomplete", stats={"undecided": len(power.undecided)})
    patterns = [parse_graph6(key) for key in power.cops_win]
    classes = connected_classes(n_max_pairs)
    colors = joint_graph_colors(spec, *classes)
    counts: dict[tuple[int, int], int] = {}

    def hom(p: int, c: int) -> int:
        """hom(patterns[p], classes[c]), memoized per call."""
        value = counts.get((p, c))
        if value is None:
            value = counts[(p, c)] = hom_count(patterns[p], classes[c])
        return value

    mismatches = []
    hits = 0
    misses = 0
    undistinguished = 0
    distinguished = 0
    cases = 0
    pattern_ids = range(len(patterns))
    for i in range(len(classes)):
        check_deadline()
        for j in range(i + 1, len(classes)):
            cases += 1
            if colors[i] != colors[j]:
                distinguished += 1
                if any(hom(p, i) != hom(p, j) for p in pattern_ids):
                    hits += 1
                else:
                    misses += 1
            else:
                undistinguished += 1
                for p in pattern_ids:
                    cg, ch = hom(p, i), hom(p, j)
                    if cg != ch:
                        mismatches.append(
                            {
                                "g": emit_graph6(classes[i]),
                                "h": emit_graph6(classes[j]),
                                "pattern": emit_graph6(patterns[p]),
                                "hom_g": cg,
                                "hom_h": ch,
                            }
                        )
    return ValidationReport(
        suite="soundness",
        cases_run=cases,
        mismatches=mismatches,
        coverage={
            "undistinguished_pairs": undistinguished,
            "distinguished_pairs": distinguished,
            "witness_hits": hits,
            "witness_misses": misses,
            "patterns": len(patterns),
        },
    )


def _r_contained(small: RSelector, large: RSelector) -> bool:
    if large.kind == "all_k_tuples":
        return True
    if small.kind == "all_k_tuples":
        return False
    # both distance_restricted
    return small.delta <= large.delta


def _f_contained(small: FSelector, large: FSelector) -> bool:
    # both specs share t, and a shared-F kind selects every t-tuple
    if large.kind in _SHARED_F_KINDS:
        return True
    if small.kind != large.kind:
        return False
    return small.kind != "delta_ball_intersection" or small.delta <= large.delta


def check_monotonicity(
    spec_small: GfwlSpec,
    spec_large: GfwlSpec,
    n_max: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> ValidationReport:
    """Check cops_win(spec_small) ⊆ cops_win(spec_large) over connected
    classes up to ``n_max``.  Requires identical schedules and pointwise
    selector containment, verified structurally first."""
    if (
        spec_small.k != spec_large.k
        or spec_small.t != spec_large.t
        or spec_small.i_seq != spec_large.i_seq
        or spec_small.j_seq != spec_large.j_seq
    ):
        raise ConfigurationError("monotonicity requires identical k, t, i_seq, j_seq")
    if not _r_contained(spec_small.r_selector, spec_large.r_selector):
        raise ConfigurationError(
            f"tuple universes not contained: {spec_small.r_selector.kind} vs "
            f"{spec_large.r_selector.kind}"
        )
    if not _f_contained(spec_small.f_selector, spec_large.f_selector):
        raise ConfigurationError(
            f"aggregation sets not comparably contained: {spec_small.f_selector.kind} vs "
            f"{spec_large.f_selector.kind}"
        )
    small = enumerate_power(spec_small, n_max, max_states=max_states)
    large = enumerate_power(spec_large, n_max, max_states=max_states)
    if not (small.complete and large.complete):
        raise BudgetError(
            "power enumeration incomplete",
            stats={"undecided": len(small.undecided) + len(large.undecided)},
        )
    large_set = set(large.cops_win)
    mismatches = [
        {"graph6": key, "small": "cops", "large": "robber"}
        for key in small.cops_win
        if key not in large_set
    ]
    return ValidationReport(
        suite="monotonicity", cases_run=len(connected_classes(n_max)), mismatches=mismatches
    )


def validate_hom_closedness(spec: GfwlSpec, n_max: int) -> ValidationReport:
    """Check both selectors of ``spec`` for homomorphism-closedness over
    the pool of connected classes up to ``n_max``."""
    pool = list(connected_classes(n_max))
    r_report = check_hom_closed(spec.r_selector, spec.k, None, pool)
    f_report = check_hom_closed(spec.f_selector, spec.k, spec.t, pool)
    def describe(selector: str, ce: dict) -> dict:
        out = {
            "selector": selector,
            "g": emit_graph6(ce["g"]),
            "h": emit_graph6(ce["h"]),
            "hom": list(ce["hom"]),
        }
        if "tuple" in ce:
            out["tuple"] = list(ce["tuple"])
        return out

    mismatches = [describe("r", ce) for ce in r_report.counterexamples] + [
        describe("f", ce) for ce in f_report.counterexamples
    ]
    return ValidationReport(
        suite="hom_closed",
        cases_run=r_report.pairs_checked + f_report.pairs_checked,
        mismatches=mismatches,
        coverage={
            "maps_checked": r_report.maps_checked + f_report.maps_checked,
            "truncated": r_report.truncated or f_report.truncated,
        },
    )
