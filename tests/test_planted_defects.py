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
from wlpower import graphs, refinement
from wlpower.games import (
    DEFAULT_MAX_STATES,
    _bijection_key,
    _BijectionMoves,
    _EfSolver,
    _max_matching,
    _pebble_order,
    _pursuit_key,
    _PursuitMoves,
    _read,
    _stays_in_region,
)
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

from test_games import duplicator_regions_cut, robber_regions_cut

CLASSES4 = wl.connected_classes(4)
TRUE_PUTS = _BijectionMoves.puts
TRUE_PUT_ROW = _TupleTable.put_row
TRUE_PUT_KEYS = _TupleTable.put_keys
TRUE_PURSUIT_MOVES = _PursuitMoves.moves
TRUE_DISTINGUISH = refinement.distinguish
TRUE_SIGNATURES = refinement._round_1_signatures
TRUE_LEAST_KEY = graphs._new_node_has_least_key


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


def robber_replay_judge() -> list:
    """Robber replay on K4 under ``fwl_spec(2)``, a Robber win: the
    solver's region must replay, and no region cut from it
    (``tests/test_games.py::robber_regions_cut``) may.  Returns the
    failures."""
    spec, g = wl.fwl_spec(2), wl.complete_graph(4)
    verdict = wl.cops_robber_wins(spec, g)
    failures = [] if wl.replay_certificate(verdict, spec, g) else ["the solver's region"]
    return failures + [i for i, cut in enumerate(robber_regions_cut(verdict)) if wl.replay_certificate(cut, spec, g)]


def duplicator_replay_judge() -> list:
    """Duplicator replay on C6 against two triangles under
    ``local_fwl_spec(1)``, a Duplicator win: the solver's region must
    replay, and no region cut from it
    (``tests/test_games.py::duplicator_regions_cut``) may.  Returns the
    failures."""
    spec, g, h = wl.local_fwl_spec(1), wl.cycle_graph(6), wl.disjoint_union(wl.cycle_graph(3), wl.cycle_graph(3))
    verdict = wl.spoiler_wins(spec, g, h)
    failures = [] if wl.replay_certificate(verdict, spec, (g, h)) else ["the solver's region"]
    cuts = duplicator_regions_cut(verdict, spec, g, h)
    return failures + [i for i, cut in enumerate(cuts) if wl.replay_certificate(cut, spec, (g, h))]


def barbell(path_edges: int) -> wl.Graph:
    """Two triangles joined by a path of ``path_edges`` edges."""
    end = 2 + path_edges
    path = [(v, v + 1) for v in range(2, end)]
    return wl.Graph(end + 3, [(0, 1), (0, 2), (1, 2), *path, (end, end + 1), (end, end + 2), (end + 1, end + 2)])


def least_key_judge() -> list:
    """The least-key filter of class enumeration, which must keep a
    candidate of every connected class: ``enumerate_connected_graphs(6)``
    against OEIS A001349, the connected graphs by node count, and, on
    the barbells of two triangles joined by a path of 1 to 4 edges (up
    to 9 nodes, past the enumerator's 8), some non-cut node moved last
    must pass the filter, read from its module at call time.  The
    9-node barbell is the first of them whose least-key nodes are all
    cut nodes.  Returns the failures."""
    counts = [0] * 6
    for g in wl.enumerate_connected_graphs(6):
        counts[g.n - 1] += 1
    failures = [(n, count) for n, (count, want) in enumerate(zip(counts, [1, 1, 2, 6, 21, 112]), 1) if count != want]
    for g in map(barbell, range(1, 5)):
        last = [
            g.permuted([u - (u > v) if u != v else g.n - 1 for u in range(g.n)])
            for v in range(g.n)
            if len(graphs.component_masks(g.adj_masks, 1 << v)) == 1
        ]
        if not any(graphs._new_node_has_least_key(h.adj_masks, True) for h in last):
            failures.append(wl.emit_graph6(g))
    return failures


def sides_sorted_apart(pebbles: tuple) -> tuple:
    """A joint pebble order that sorts the g side and the h side each on
    its own, which breaks the (g node, h node) pairs."""
    if pebbles and isinstance(pebbles[0], tuple):  # the bijection game's pairs
        return tuple(zip(*map(_pebble_order, zip(*pebbles))))
    return _pebble_order(pebbles)


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


def robber_skips_moves_without_reply(cert: dict, spec: wl.GfwlSpec, g: wl.Graph) -> bool:
    """Robber replay that skips a Cops move with no reply inside the
    region, instead of refusing the certificate there."""
    region = _read(cert, "region", _pursuit_key)
    game = _PursuitMoves(spec, g)

    def follow(key: tuple) -> list:
        replies = [next((s for s in succs if s in region), None) for _, succs in game.moves(key)]
        return [reply for reply in replies if reply is not None]

    return _stays_in_region(region, game.initial(), follow)


def duplicator_matching_not_perfect(cert: dict, spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph) -> bool:
    """Duplicator replay that follows a maximum matching of the puts
    inside the region even when it is not perfect, so a choice with no
    partner inside goes unchecked."""
    region = _read(cert, "region", _bijection_key)
    game = _BijectionMoves(*_tables_of(spec, (g, h), None))

    def follow(key: tuple) -> list | None:
        if key[0][0] == "R":
            succs = game.removals(key)
            return succs if all(s in region for s in succs) else None
        count, puts = game.puts(key)
        if puts is None:
            return None
        inside = [(ai, bi, s) for ai, bi, s in puts if s in region]
        match = _max_matching(count, [(ai, bi) for ai, bi, _ in inside])
        return [s for ai, bi, s in inside if match[ai] == bi]

    return _stays_in_region(region, [(("I", 1), (), ())], follow)


def cut_nodes_eligible(adj: list, connected_only: bool) -> bool:
    """The least-key filter with cut nodes eligible also when only
    connected classes are built; a connected class whose least-key
    nodes are all cut nodes then has no candidate that passes.  No
    class up to 8 nodes, the enumerator's limit, is one."""
    return TRUE_LEAST_KEY(adj, False)


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
    "robber-replay-skips-moves": ("wlpower.games._replay_robber", robber_skips_moves_without_reply, robber_replay_judge),
    "duplicator-replay-matching-not-perfect": (
        "wlpower.games._replay_duplicator", duplicator_matching_not_perfect, duplicator_replay_judge
    ),
    "least-key-cut-nodes-eligible": (
        "wlpower.graphs._new_node_has_least_key", cut_nodes_eligible, least_key_judge
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_judge_catches_planted_defect(name, monkeypatch):
    target, wrong, judge = PLANTED[name]
    assert judge() == []
    monkeypatch.setattr(target, wrong)
    assert judge() != []
