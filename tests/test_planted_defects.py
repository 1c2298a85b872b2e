"""Planted defects for the package's own fast paths.

Each entry names a fast path, a wrong version of it and a judge: a test
helper that runs in-process on small inputs and is not a golden digest.
The judge must pass on the package as it is and fail with the wrong
version installed (by ``monkeypatch``), so a fast path whose breakage no
judge sees shows up here.
"""

import itertools
import random
from unittest import mock

import pytest

import wlpower as wl
from wlpower import refinement
from wlpower.games import DEFAULT_MAX_STATES, _BijectionMoves, _EfSolver, _PursuitMoves, _pebble_order
from wlpower.refinement import (
    ColorDictionary,
    _collapse,
    _Context,
    _deadline_checked,
    _next_phase,
    _stabilize,
    _tables_of,
    _TupleTable,
)

CLASSES4 = wl.connected_classes(4)
TRUE_PUTS = _BijectionMoves.puts
TRUE_PUT_ROW = _TupleTable.put_row
TRUE_PUT_KEYS = _TupleTable.put_keys
TRUE_PURSUIT_MOVES = _PursuitMoves.moves
TRUE_DISTINGUISH = refinement.distinguish
TRUE_SIGNATURES = refinement._round_1_signatures


def relabeled_pairs(rng: random.Random) -> list:
    """Every unordered pair of classes n <= 4, equal pairs included, with
    the second graph relabeled."""
    return [
        (g, h.permuted(rng.sample(range(h.n), h.n)))
        for g, h in itertools.combinations_with_replacement(CLASSES4, 2)
    ]


def bijection_judge() -> list:
    """The bijection game against refinement (Theorem 2) on every
    unordered pair of classes n <= 4, equal pairs included, with the
    second graph relabeled, under the four built-in specs: the winner
    must follow ``distinguish`` and the certificate must replay.
    Returns the failures."""
    failures = []
    for name, spec in wl.BUILTIN_SPECS.items():
        for g, h in relabeled_pairs(random.Random(5)):
            verdict = wl.spoiler_wins(spec, g, h)
            expected = "spoiler" if wl.distinguish(spec, g, h) else "duplicator"
            if verdict.winner != expected or not wl.replay_certificate(verdict, spec, (g, h)):
                failures.append((name, wl.emit_graph6(g), wl.emit_graph6(h), verdict.winner))
    return failures


def lookahead_judge() -> list:
    """Hall's condition one move ahead, on the pairs and specs of
    :func:`bijection_judge`: a put is listed only when its successor
    passes Hall's condition, so in every arena no putting state but the
    root fails it (the two sides' Hall rows, their sorted type codes,
    differ).  Returns the putting states that fail it."""
    failures = []
    for name, spec in wl.BUILTIN_SPECS.items():
        for g, h in relabeled_pairs(random.Random(5)):
            solver = _EfSolver(*_tables_of(spec, (g, h), None), DEFAULT_MAX_STATES)
            solver.generate()
            table_g, table_h = solver.game.tables_g, solver.game.tables_h
            for phase, pos_g, pos_h in solver.states.keys[1:]:
                if phase[0] != "R" and table_g.put_row(phase, pos_g)[2] != table_h.put_row(phase, pos_h)[2]:
                    failures.append((name, wl.emit_graph6(g), wl.emit_graph6(h), phase, pos_g, pos_h))
    return failures


def treewidth_judge() -> list:
    """The pursuit game against the treewidth DP (Cops win iff treewidth
    <= k) under ``fwl_spec(k)`` for k = 1, 2 on every class n <= 6.
    Returns the mismatches."""
    return [mismatch for k in (1, 2) for mismatch in wl.compare_to_treewidth(k, 6).mismatches]


def early_exit_judge() -> list:
    """``distinguish``, read from its module at call time so a planted
    version is the one called, against one joint run of
    ``joint_graph_colors`` on every unordered pair of classes n <= 5,
    equal pairs included, with the second graph relabeled, under the
    four built-in specs.  Returns the disagreements."""
    classes = wl.connected_classes(5)
    rng = random.Random(5)
    relabeled = [h.permuted(rng.sample(range(h.n), h.n)) for h in classes]
    failures = []
    for name, spec in wl.BUILTIN_SPECS.items():
        colors = wl.joint_graph_colors(spec, *classes)
        for i, j in itertools.combinations_with_replacement(range(len(classes)), 2):
            if refinement.distinguish(spec, classes[i], relabeled[j]) != (colors[i] != colors[j]):
                failures.append((name, wl.emit_graph6(classes[i]), wl.emit_graph6(relabeled[j])))
    return failures


def round_0_guard_judge() -> list:
    """``distinguish`` on every pair of graphs n <= 3, connected or not,
    under the two local specs, where some colored tuple aggregates over
    an empty set: its verdict must follow one joint run of
    ``joint_graph_colors``, and round 0 must not decide it, so the
    round-1 signatures are computed.  Returns the failures."""
    graphs = list(wl.enumerate_connected_graphs(3, connected_only=False))
    failures = []
    for name in ("local_1fwl", "local_2fwl"):
        spec = wl.BUILTIN_SPECS[name]
        colors = wl.joint_graph_colors(spec, *graphs)
        for (i, g), (j, h) in itertools.combinations(enumerate(graphs), 2):
            if all(all(_TupleTable(spec, x).fsets.values()) for x in (g, h)):
                continue
            with mock.patch.object(refinement, "_round_1_signatures", wraps=TRUE_SIGNATURES) as signed:
                verdict = refinement.distinguish(spec, g, h)
            if verdict != (colors[i] != colors[j]) or not signed.called:
                failures.append((name, wl.emit_graph6(g), wl.emit_graph6(h)))
    return failures


def sides_sorted_apart(k: int, phase: tuple, pebbles: tuple) -> tuple:
    """A joint pebble order that sorts the g side and the h side each on
    its own, which breaks the (g node, h node) pairs."""
    if pebbles and isinstance(pebbles[0], tuple):  # the bijection game's pairs
        return tuple(zip(*(_pebble_order(k, phase, side) for side in zip(*pebbles))))
    return _pebble_order(k, phase, pebbles)


def puts_merged(self, key: tuple) -> tuple:
    """Puts deduplicated by canonical successor, which drops choice
    pairs that Duplicator's bijection needs."""
    count, puts = TRUE_PUTS(self, key)
    if puts is None:
        return count, None
    seen = set()
    kept = []
    for ai, bi, succ in puts:
        if succ not in seen:
            seen.add(succ)
            kept.append((ai, bi, succ))
    return count, kept


def hall_row_unsorted(self, phase: tuple, pos: tuple) -> tuple:
    """Put rows whose Hall row holds the type codes in choice order, not
    sorted, so the Hall cut compares two orders of one multiset."""
    new, codes, _ = TRUE_PUT_ROW(self, phase, pos)
    return new, codes, self.hall_ids.id_for(("put", *codes))


def removal_rows_from_g(self, phase: tuple, pos: tuple) -> tuple:
    """Choice keys whose lookahead builds a removing successor's Hall
    rows from the g side alone.  Such a row is the same on both sides of
    every pair, so it never tells them apart: where the next phase
    removes, the keys carry the type code only.  The game stays sound
    but lists puts whose successors are dead at birth."""
    if _next_phase(self.spec, phase)[0] != "R":
        return TRUE_PUT_KEYS(self, phase, pos)
    _, codes, _ = self.put_row(phase, pos)
    buckets: dict = {}
    for index, code in enumerate(codes):
        buckets.setdefault(code, []).append(index)
    return codes, sorted(codes), buckets


def removal_not_grown(self, key: tuple) -> list:
    """Pursuit moves whose removals leave Robber in his component
    instead of growing it to the one that holds it in g minus the kept
    pebbles."""
    moves = TRUE_PURSUIT_MOVES(self, key)
    if key[0][0] != "R":
        return moves
    return [(choice, [(phase, pos, key[2]) for phase, pos, _ in succs]) for choice, succs in moves]


def distinguish_stops_at_round_1(spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph) -> bool:
    """``distinguish`` that decides every pair at round 1: a pair whose
    color multisets differ there is distinguished, as the exit says,
    but a pair whose multisets agree is called not distinguished,
    though a later round can still separate it."""
    dic = ColorDictionary()
    contexts = [_Context(_TupleTable(spec, x), dic) for x in (g, h)]
    for colors_g, colors_h in itertools.islice(_stabilize(contexts), 1, None):
        return sorted(colors_g.values()) != sorted(colors_h.values())
    return False


def licensed_for_every_spec(spec: wl.GfwlSpec, g: wl.Graph) -> bool:
    """The distinct-node license granted to every spec on a graph of at
    least k + t nodes, also to specs whose selectors read the graph."""
    return g.n >= spec.k + spec.t


def signatures_unsorted(table: _TupleTable, id_for) -> list:
    """Round-1 signatures in universe order, not sorted, so two graphs
    that agree up to relabeling can compare unequal."""
    seq, stages, type_code = table.spec.j_seq, table.stages, table.type_code
    return [
        _collapse([type_code(v + u) for u in us], stages[v], seq, "sig", id_for)
        for v, us in _deadline_checked(table.fsets.items())
    ]


def round_0_unguarded(spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph) -> bool:
    """``distinguish`` that compares the round-0 type codes also when an
    aggregation set is empty, where round 0 proves nothing."""
    tables = [_TupleTable(spec, g), _TupleTable(spec, h)]
    if sorted(map(tables[0].type_code, tables[0].rset)) != sorted(map(tables[1].type_code, tables[1].rset)):
        return True
    return TRUE_DISTINGUISH(spec, g, h)


# name: (the fast path's import path, its wrong version, the judge)
PLANTED = {
    "joint-order-sides-sorted-apart": ("wlpower.games._pebble_order", sides_sorted_apart, bijection_judge),
    "bijection-puts-merged": ("wlpower.games._BijectionMoves.puts", puts_merged, bijection_judge),
    "hall-cut-unsorted-codes": ("wlpower.refinement._TupleTable.put_row", hall_row_unsorted, bijection_judge),
    "lookahead-removal-rows-from-g": (
        "wlpower.refinement._TupleTable.put_keys", removal_rows_from_g, lookahead_judge
    ),
    "pursuit-removal-not-grown": ("wlpower.games._PursuitMoves.moves", removal_not_grown, treewidth_judge),
    "distinguish-stops-at-round-1": (
        "wlpower.refinement.distinguish", distinguish_stops_at_round_1, early_exit_judge
    ),
    "distinct-license-for-every-spec": (
        "wlpower.refinement._distinct_puts", licensed_for_every_spec, bijection_judge
    ),
    "round-1-signatures-unsorted": (
        "wlpower.refinement._round_1_signatures", signatures_unsorted, early_exit_judge
    ),
    "round-0-guard-dropped": ("wlpower.refinement.distinguish", round_0_unguarded, round_0_guard_judge),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_judge_catches_planted_defect(name, monkeypatch):
    target, wrong, judge = PLANTED[name]
    assert judge() == []
    monkeypatch.setattr(target, wrong)
    assert judge() != []
