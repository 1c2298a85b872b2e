"""Exact game solvers: the bijection game on graph pairs, the pursuit
game on query graphs, and certificate replay for all four winners.
"""

import copy
import itertools
import json
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wlpower as wl
from wlpower.errors import BudgetError, CertificateError, ClosureError, ConfigurationError
from wlpower.games import (
    DEFAULT_MAX_STATES,
    _BijectionMoves,
    _CrSolver,
    _EfSolver,
    _PursuitMoves,
    _max_matching,
    _next_phase,
    _pebble_order,
)
from wlpower.refinement import _distinct_puts, _tables_of, _TupleTable
from furer import furer_pair
from wlpower.graphs import component_masks, mask_nodes
from test_golden import UNEVEN_SPECS


def ef_solver(spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph, max_states: int) -> _EfSolver:
    """The bijection solver on ``(g, h)``, not yet run."""
    return _EfSolver(*_tables_of(spec, (g, h), None), max_states)


def nx_trees(n: int) -> list[wl.Graph]:
    if n == 1:
        return [wl.empty_graph(1)]
    if n == 2:
        return [wl.complete_graph(2)]
    return [wl.Graph(n, t.edges()) for t in nx.nonisomorphic_trees(n)]


# ---------------------------------------------------------------------------
# Matching helper


def test_max_matching():
    # (left index, right index) pairs; the result is the partner per left
    # index, -1 where unmatched.
    assert _max_matching(0, []) == []
    assert _max_matching(2, [(0, 0), (1, 0), (1, 1)]) == [0, 1]
    assert _max_matching(2, [(0, 1), (1, 0)]) == [1, 0]
    assert -1 in _max_matching(2, [(0, 0), (1, 0)])
    assert _max_matching(2, []) == [-1, -1]


# ---------------------------------------------------------------------------
# Pursuit game verdicts


def test_pursuit_small_examples():
    local1 = wl.local_fwl_spec(1)
    two = wl.fwl_spec(2)
    assert wl.cops_robber_wins(local1, wl.complete_graph(2)).winner == "cops"
    assert wl.cops_robber_wins(local1, wl.empty_graph(1)).winner == "cops"
    assert wl.cops_robber_wins(two, wl.complete_graph(4)).winner == "robber"
    assert wl.cops_robber_wins(two, wl.cycle_graph(5)).winner == "cops"
    assert wl.cops_robber_wins(wl.fwl_spec(1), wl.cycle_graph(4)).winner == "robber"
    assert wl.cops_robber_wins(wl.fwl_spec(3), wl.complete_graph(4)).winner == "cops"


def test_pursuit_empty_graph_is_cops():
    # no component for the fugitive to start in
    verdict = wl.cops_robber_wins(wl.local_fwl_spec(1), wl.empty_graph(0))
    assert verdict.winner == "cops"


def test_pursuit_trees_are_cops_wins():
    two = wl.fwl_spec(2)
    for n in range(1, 7):
        for tree in nx_trees(n):
            assert wl.cops_robber_wins(two, tree, want_certificate=False).winner == "cops"
    local1 = wl.local_fwl_spec(1)
    for n in range(1, 7):
        assert wl.cops_robber_wins(local1, wl.path_graph(n)).winner == "cops"


def test_pursuit_disconnected_query():
    two_triangles = wl.disjoint_union(wl.complete_graph(3), wl.complete_graph(3))
    assert wl.cops_robber_wins(wl.fwl_spec(2), two_triangles).winner == "cops"
    mixed = wl.disjoint_union(wl.path_graph(2), wl.complete_graph(4))
    assert wl.cops_robber_wins(wl.fwl_spec(2), mixed).winner == "robber"


def test_pursuit_state_bound():
    spec = wl.fwl_spec(2)
    g = wl.cycle_graph(5)
    verdict = wl.cops_robber_wins(spec, g)
    n, k, t = g.n, spec.k, spec.t
    phases = spec.n_stages + spec.m_stages + 1
    assert 0 < verdict.states_explored <= (n + 1) ** (k + t) * 2**n * phases


def test_pursuit_budget():
    with pytest.raises(BudgetError) as exc:
        wl.cops_robber_wins(wl.fwl_spec(2), wl.cycle_graph(6), max_states=10)
    assert exc.value.stats["states"] == 10


@pytest.mark.parametrize(
    "spec, g",
    [
        (wl.fwl_spec(2), wl.cycle_graph(6)),
        (wl.drfwl2_spec(1), wl.Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])),
    ],
    ids=["fwl2-C6", "drfwl2_1-bull"],
)
def test_component_table_hits_count_table_lookups(spec, g, monkeypatch):
    # Each edge looks Robber's components up once in the blocked-mask
    # table, and the initial board once more; only a miss computes them.
    calls = []

    def counting(adj, blocked):
        calls.append(blocked)
        return component_masks(adj, blocked)

    monkeypatch.setattr("wlpower.games.component_masks", counting)
    stats = wl.cops_robber_wins(spec, g).stats
    assert len(calls) == len(set(calls)) > 1
    assert stats["component_table_hits"] == stats["edges"] + 1 - len(calls)


# ---------------------------------------------------------------------------
# Bijection game verdicts


def test_bijection_small_examples(c6, two_c3):
    local1 = wl.local_fwl_spec(1)
    assert wl.spoiler_wins(local1, wl.complete_graph(3), wl.path_graph(3)).winner == "spoiler"
    assert wl.spoiler_wins(local1, c6, two_c3).winner == "duplicator"
    assert wl.spoiler_wins(wl.fwl_spec(2), c6, two_c3).winner == "spoiler"
    assert wl.spoiler_wins(local1, wl.path_graph(3), wl.path_graph(4)).winner == "spoiler"


def test_bijection_isomorphic_pairs():
    rng = random.Random(11)
    for spec in wl.BUILTIN_SPECS.values():
        for _ in range(3):
            n = rng.randint(1, 4)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = wl.Graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            verdict = wl.spoiler_wins(spec, g, g.permuted(perm))
            assert verdict.winner == "duplicator"


def test_bijection_budget():
    with pytest.raises(BudgetError) as exc:
        wl.spoiler_wins(wl.fwl_spec(2), wl.cycle_graph(6), wl.cycle_graph(6), max_states=5)
    assert exc.value.stats["states"] == 5


def test_bijection_takes_the_pair_tables(c6, two_c3):
    # Tuple tables built by the caller give the same verdict; tables of
    # other graphs, of the pair in the other order or of another spec
    # are refused, and so are tables whose Hall rows do not compare.
    spec = wl.fwl_spec(2)
    tables = tuple(_tables_of(spec, (c6, two_c3), None))
    assert wl.spoiler_wins(spec, c6, two_c3, tables=tables) == wl.spoiler_wins(spec, c6, two_c3)
    for bad_spec, g, h in [(spec, two_c3, c6), (spec, c6, wl.path_graph(6)), (wl.local_fwl_spec(2), c6, two_c3)]:
        with pytest.raises(ValueError):
            wl.spoiler_wins(bad_spec, g, h, tables=tables)
    with pytest.raises(ValueError):
        wl.spoiler_wins(spec, c6, two_c3, tables=(_TupleTable(spec, c6), _TupleTable(spec, two_c3)))


def test_bijection_agrees_with_refinement(classes4):
    for spec in (wl.fwl_spec(2), wl.local_fwl_spec(1)):
        for g, h in itertools.combinations(classes4, 2):
            verdict = wl.spoiler_wins(spec, g, h, want_certificate=False)
            expected = "spoiler" if wl.distinguish(spec, g, h) else "duplicator"
            assert verdict.winner == expected


@pytest.mark.slow
def test_furer_k4_pair_fits_the_default_budget():
    # K4 has treewidth 3, so 2-FWL does not count it and Duplicator wins
    # on its Fürer pair (two 16-node graphs).  Up to joint pebble order
    # the arena fits the default state budget; the full game does not.
    g, h = furer_pair(wl.complete_graph(4))
    assert not wl.distinguish(wl.fwl_spec(2), g, h)
    verdict = wl.spoiler_wins(wl.fwl_spec(2), g, h, want_certificate=False)
    assert verdict.winner == "duplicator"
    assert verdict.states_explored < DEFAULT_MAX_STATES


@st.composite
def graph_pairs(draw, max_n: int = 5):
    """Two graphs on at most ``max_n`` nodes, connected or not; the second
    is a relabeled copy of the first about half the time."""

    def graph():
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        return wl.Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])

    g = graph()
    if draw(st.booleans()):
        return g, g.permuted(list(draw(st.permutations(range(g.n)))))
    return g, graph()


# A pair whose Spoiler certificate once failed to replay: its removal
# choices must follow the order in which the fixpoint deleted states.
LATE_DEATH_PAIR = (
    wl.Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]),
    wl.Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),
)


@settings(max_examples=60, deadline=None)
@given(graph_pairs())
@example(LATE_DEATH_PAIR)
def test_bijection_matches_refinement_and_replays(pair):
    # Refinement is an oracle independent of the Hall cut: the game's
    # winner must follow it, and the certificate must replay.
    g, h = pair
    for name, spec in wl.BUILTIN_SPECS.items():
        verdict = wl.spoiler_wins(spec, g, h)
        expected = "spoiler" if wl.distinguish(spec, g, h) else "duplicator"
        assert verdict.winner == expected, name
        assert wl.replay_certificate(verdict, spec, (g, h)), name


def test_bijection_fixpoint_matches_naive_iteration(classes4):
    # The solver's backward pass with rechecks must delete exactly the
    # states that plain round-robin deletion until nothing changes does.
    def naive_alive(solver):
        solver.alive = [True] * len(solver.states.keys)
        changed = True
        while changed:
            changed = False
            for sid, succs in enumerate(solver.succs):
                cut = succs is None  # dead at birth: Hall's condition fails
                if solver.alive[sid] and (cut or not solver._survives(sid)):
                    solver.alive[sid] = False
                    changed = True
        return solver.alive

    pairs = list(itertools.combinations_with_replacement(classes4, 2))
    two_c3 = wl.disjoint_union(wl.complete_graph(3), wl.complete_graph(3))
    pairs += [(wl.cycle_graph(5), wl.path_graph(5)), (wl.cycle_graph(6), two_c3)]
    for spec in wl.BUILTIN_SPECS.values():
        for g, h in pairs:
            solver = ef_solver(spec, g, h, 100_000)
            solver.generate()
            solver.fixpoint()
            fast = solver.alive
            assert naive_alive(solver) == fast


def test_removals_keep_one_type_on_both_sides(classes4, monkeypatch):
    # A removing state is reached only by a put that type-checked the
    # whole position, so every index selection keeps pebbles of one type
    # on both sides; this is why a removal needs no type check.  Both
    # the quotient's distinct-node arenas and the full game's are checked.
    specs = [*wl.BUILTIN_SPECS.values(), wl.fwl_plus_spec(2, 2)]
    checked = 0
    for order, distinct in ((_pebble_order, _distinct_puts), (played_order, no_license)):
        monkeypatch.setattr("wlpower.games._pebble_order", order)
        monkeypatch.setattr("wlpower.refinement._distinct_puts", distinct)
        for spec in specs:
            combos = list(itertools.combinations(range(spec.k + spec.t), spec.k))
            for g, h in itertools.combinations_with_replacement(classes4, 2):
                solver = ef_solver(spec, g, h, 100_000)
                solver.generate()
                removing = [key for key in solver.states.keys if key[0][0] == "R"]
                checked += len(removing)
                for _, pos_g, pos_h in removing:
                    for combo in combos:
                        sel_g = [pos_g[i] for i in combo]
                        sel_h = [pos_h[i] for i in combo]
                        assert wl.atp(g, sel_g) == wl.atp(h, sel_h), (spec, g, h, pos_g, pos_h, combo)
    assert checked > 10_000


def test_verdict_deterministic(c6, two_c3):
    a = wl.spoiler_wins(wl.fwl_spec(2), c6, two_c3)
    b = wl.spoiler_wins(wl.fwl_spec(2), c6, two_c3)
    assert a.winner == b.winner and a.states_explored == b.states_explored
    assert a.certificate == b.certificate


def json_round_trip(verdict: wl.GameVerdict) -> wl.GameVerdict:
    """The verdict rebuilt from its JSON dump, certificate included."""
    return wl.GameVerdict(**json.loads(json.dumps(verdict.to_json_dict(include_certificate=True))))


def set_entry(table: list, key: tuple, value) -> None:
    """Give ``key`` the value ``value`` in a certificate's list of
    ``[state key, value]`` pairs."""
    table[[stored for stored, _ in table].index(key)] = (key, value)


def test_verdict_json():
    spec, g = wl.local_fwl_spec(1), wl.path_graph(3)
    verdict = wl.cops_robber_wins(spec, g)
    assert verdict.winner == "cops"
    plain = verdict.to_json_dict()
    assert plain == {"winner": "cops", "states_explored": verdict.states_explored}
    full = verdict.to_json_dict(include_certificate=True)
    assert full["certificate"] == verdict.certificate
    assert wl.replay_certificate(json_round_trip(verdict), spec, g)

    spec, g = wl.fwl_spec(2), wl.complete_graph(4)
    robber = wl.cops_robber_wins(spec, g)
    assert robber.winner == "robber"
    assert wl.replay_certificate(json_round_trip(robber), spec, g)


# ---------------------------------------------------------------------------
# Certificate replay


def test_replay_cops():
    spec = wl.local_fwl_spec(1)
    g = wl.path_graph(4)
    verdict = wl.cops_robber_wins(spec, g)
    assert verdict.winner == "cops"
    assert wl.replay_certificate(verdict, spec, g)

    tampered = copy.deepcopy(verdict)
    tampered.certificate["moves"] = []
    assert not wl.replay_certificate(tampered, spec, g)

    # well-formed but illegal root moves
    root = (("I", 1), (), tuple(range(g.n)))
    tampered = copy.deepcopy(verdict)
    set_entry(tampered.certificate["moves"], root, ("put", (g.n,)))  # outside the choice set
    assert not wl.replay_certificate(tampered, spec, g)

    tampered = copy.deepcopy(verdict)
    set_entry(tampered.certificate["moves"], root, ("rm", (0,)))  # removal in a putting phase
    assert not wl.replay_certificate(tampered, spec, g)


def test_replay_robber():
    spec = wl.fwl_spec(2)
    g = wl.complete_graph(4)
    verdict = wl.cops_robber_wins(spec, g)
    assert verdict.winner == "robber"
    assert wl.replay_certificate(verdict, spec, g)

    assert not any(wl.replay_certificate(tampered, spec, g) for tampered in robber_regions_cut(verdict))


def region_without(verdict: wl.GameVerdict, drop) -> wl.GameVerdict:
    """``verdict`` with the states that ``drop`` picks cut from its
    certificate's region."""
    tampered = copy.deepcopy(verdict)
    tampered.certificate["region"] = [key for key in verdict.certificate["region"] if not drop(key)]
    return tampered


def robber_regions_cut(verdict: wl.GameVerdict) -> list[wl.GameVerdict]:
    """Regions cut from a Robber certificate, none of which may replay:
    the empty region, the region without the root states, and without
    the ``("U", 1)`` states, where some Cops move then has no reply
    inside."""
    return [
        region_without(verdict, lambda key: True),
        region_without(verdict, lambda key: key[0] == ("I", 1) and not key[1]),
        region_without(verdict, lambda key: key[0] == ("U", 1)),
    ]


def test_replay_robber_forged_region_on_cops_win():
    # Cops win on a tree; a Robber verdict whose region lists every
    # reachable state still offers no reply where Cops trap Robber.
    spec = wl.fwl_spec(2)
    g = wl.path_graph(4)
    assert wl.cops_robber_wins(spec, g, want_certificate=False).winner == "cops"
    solver = _CrSolver(spec, g, DEFAULT_MAX_STATES)
    solver.generate()
    region = [(phase, pos, mask_nodes(comp)) for phase, pos, comp in solver.states.keys]
    forged = wl.GameVerdict("robber", len(region), {"winner": "robber", "region": region})
    assert not wl.replay_certificate(forged, spec, g)


def test_replay_duplicator(c6, two_c3):
    spec = wl.local_fwl_spec(1)
    verdict = wl.spoiler_wins(spec, c6, two_c3)
    assert verdict.winner == "duplicator"
    assert set(verdict.certificate) == {"winner", "region"}
    assert wl.replay_certificate(verdict, spec, (c6, two_c3))

    tampered = duplicator_regions_cut(verdict, spec, c6, two_c3)
    assert not any(wl.replay_certificate(cut, spec, (c6, two_c3)) for cut in tampered)


def duplicator_regions_cut(verdict: wl.GameVerdict, spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph) -> list:
    """Regions cut from a Duplicator certificate on ``(g, h)``, none of
    which may replay: the empty region, the region without the root,
    without the ``("U", 1)`` states, where the puts inside admit no
    perfect matching, and without the successors of one removing state:
    Spoiler picks the removal, so every removal must stay inside."""
    removing = next(key for key in verdict.certificate["region"] if key[0][0] == "R")
    removed = set(_BijectionMoves(*_tables_of(spec, (g, h), None)).removals(removing))
    return [
        region_without(verdict, lambda key: True),
        region_without(verdict, lambda key: key == (("I", 1), (), ())),
        region_without(verdict, lambda key: key[0] == ("U", 1)),
        region_without(verdict, lambda key: key in removed),
    ]


def test_duplicator_region_is_the_complement_of_spoiler_dead(c6, two_c3):
    # The two bijection certificates split one solved arena: Duplicator's
    # region is every state the fixpoint left alive, Spoiler's dead list
    # every other state.
    for spec, g, h in [(wl.local_fwl_spec(1), c6, two_c3), (wl.fwl_spec(2), c6, two_c3)]:
        solver = ef_solver(spec, g, h, DEFAULT_MAX_STATES)
        solver.generate()
        solver.fixpoint()
        region = solver.certificate(True)["region"]
        dead = solver.certificate(False)["dead"]
        assert sorted(region + dead) == sorted(solver.states.keys)
        assert not set(region) & set(dead)


def test_replay_duplicator_rejects_type_mismatch(classes4):
    # On pairs Spoiler wins, a Duplicator verdict whose region lists every
    # state the solver generated, Hall-cut states included, still reaches
    # a putting state where no type-respecting bijection exists: with
    # every successor inside the region, only the type rule is left to
    # reject it.
    forged_count = 0
    for spec in wl.BUILTIN_SPECS.values():
        for g, h in itertools.combinations(classes4, 2):
            assert wl.spoiler_wins(spec, g, h, want_certificate=False).winner == "spoiler"
            solver = ef_solver(spec, g, h, DEFAULT_MAX_STATES)
            solver.generate()
            region = json.loads(json.dumps(solver.states.keys))
            forged = wl.GameVerdict("duplicator", len(region), {"winner": "duplicator", "region": region})
            assert not wl.replay_certificate(forged, spec, (g, h))
            forged_count += 1
    assert forged_count == 4 * 45


# A pair Spoiler wins with removal choices in the certificate.  Under
# fwl_2, C6 against 2C3 no longer has one: Hall's condition one move
# ahead cuts its root at birth, so the certificate is ``dead: [root]``.
REMOVAL_SPEC = wl.local_fwl_spec(1)
REMOVAL_PAIR = (wl.parse_graph6("DIk"), wl.parse_graph6("D`["))


def test_replay_spoiler():
    spec, pair = REMOVAL_SPEC, REMOVAL_PAIR
    verdict = wl.spoiler_wins(spec, *pair)
    assert verdict.winner == "spoiler"
    assert wl.replay_certificate(verdict, spec, pair)

    tampered = copy.deepcopy(verdict)
    tampered.certificate["dead"] = []
    tampered.certificate["remove_choices"] = []
    assert not wl.replay_certificate(tampered, spec, pair)


def test_spoiler_certificate_of_a_root_cut_at_birth(c6, two_c3):
    # Under fwl_2 the root of C6 against 2C3 passes the type-count check
    # but not Hall's condition one move ahead, so it is cut at birth:
    # the arena is the root alone, and the certificate names it dead.
    spec = wl.fwl_spec(2)
    verdict = wl.spoiler_wins(spec, c6, two_c3)
    root = (("I", 1), (), ())
    assert verdict.states_explored == 1 and verdict.stats["cut_states"] == 1
    assert verdict.certificate == {"winner": "spoiler", "dead": [root], "remove_choices": []}
    assert wl.replay_certificate(verdict, spec, (c6, two_c3))
    assert wl.replay_certificate(json_round_trip(verdict), spec, (c6, two_c3))


def test_replay_spoiler_small_pair():
    spec = wl.local_fwl_spec(1)
    k3, p3 = wl.complete_graph(3), wl.path_graph(3)
    verdict = wl.spoiler_wins(spec, k3, p3)
    assert verdict.winner == "spoiler"
    assert wl.replay_certificate(verdict, spec, (k3, p3))
    # replay is direction-sensitive: the stored strategy names g-side tuples
    assert wl.spoiler_wins(spec, p3, k3).winner == "spoiler"


def test_replay_spoiler_removal_choices_follow_deaths():
    # A removing state must name a selection whose successor was dead
    # already when the state died.  Taking the first successor dead at
    # the end of the fixpoint instead can name one that died later and
    # whose own refutation leads back, so replay finds no win.
    spec = wl.local_fwl_spec(1)
    g, h = LATE_DEATH_PAIR
    verdict = wl.spoiler_wins(spec, g, h)
    assert verdict.winner == "spoiler" and wl.distinguish(spec, g, h)
    assert wl.replay_certificate(verdict, spec, (g, h))


def test_replay_malformed():
    spec = wl.local_fwl_spec(1)
    g = wl.path_graph(3)
    verdict = wl.cops_robber_wins(spec, g)

    bare = wl.GameVerdict(winner="cops", states_explored=0, certificate=None)
    with pytest.raises(CertificateError):
        wl.replay_certificate(bare, spec, g)

    wrong_winner = copy.deepcopy(verdict)
    wrong_winner.certificate["winner"] = "robber"
    with pytest.raises(CertificateError):
        wl.replay_certificate(wrong_winner, spec, g)

    with pytest.raises(CertificateError):
        wl.replay_certificate(verdict, spec, (g, g))

    missing_table = wl.GameVerdict(
        winner="cops", states_explored=0, certificate={"winner": "cops"}
    )
    with pytest.raises(CertificateError):
        wl.replay_certificate(missing_table, spec, g)

    ef = wl.spoiler_wins(spec, wl.complete_graph(3), wl.path_graph(3))
    with pytest.raises(CertificateError):
        wl.replay_certificate(ef, spec, wl.complete_graph(3))

    unhashable_dead = copy.deepcopy(ef)
    unhashable_dead.certificate["dead"] = [[0]]
    with pytest.raises(CertificateError):
        wl.replay_certificate(unhashable_dead, spec, (wl.complete_graph(3), wl.path_graph(3)))


@pytest.mark.parametrize("winner", ["robber", "duplicator"])
def test_replay_region_not_state_keys(winner, c6, two_c3):
    if winner == "robber":
        spec, inputs = wl.fwl_spec(2), wl.complete_graph(4)
        verdict = wl.cops_robber_wins(spec, inputs)
    else:
        spec, inputs = wl.local_fwl_spec(1), (c6, two_c3)
        verdict = wl.spoiler_wins(spec, *inputs)
    assert verdict.winner == winner
    for region in ({"not": "a list"}, [5], [(("I", 1), (), 5)], [[[["I"]], [], []]]):
        tampered = copy.deepcopy(verdict)
        tampered.certificate["region"] = region
        with pytest.raises(CertificateError):
            wl.replay_certificate(tampered, spec, inputs)


def test_replay_cops_move_not_a_pair():
    spec = wl.local_fwl_spec(1)
    g = wl.path_graph(4)
    verdict = wl.cops_robber_wins(spec, g)
    set_entry(verdict.certificate["moves"], (("I", 1), (), tuple(range(g.n))), "x")
    with pytest.raises(CertificateError):
        wl.replay_certificate(verdict, spec, g)


def test_replay_spoiler_remove_choice_not_a_selection():
    spec, pair = REMOVAL_SPEC, REMOVAL_PAIR
    verdict = wl.spoiler_wins(spec, *pair)
    remove_choices = verdict.certificate["remove_choices"]
    assert remove_choices
    remove_choices[:] = [(key, 7) for key, _ in remove_choices]
    with pytest.raises(CertificateError):
        wl.replay_certificate(verdict, spec, pair)


def test_replay_table_not_pairs():
    # A keyed table is a list of [state key, value] pairs: a dict, a bare
    # state key, a pair whose key is no state key and a triple are not.
    cases = [
        (wl.local_fwl_spec(1), wl.path_graph(4), "moves"),
        (REMOVAL_SPEC, REMOVAL_PAIR, "remove_choices"),
    ]
    for spec, inputs, name in cases:
        if isinstance(inputs, wl.Graph):
            verdict = wl.cops_robber_wins(spec, inputs)
        else:
            verdict = wl.spoiler_wins(spec, *inputs)
        key, value = verdict.certificate[name][0]
        for bad in (dict(verdict.certificate[name]), [key], [(5, value)], [(key, value, value)]):
            tampered = copy.deepcopy(verdict)
            tampered.certificate[name] = bad
            with pytest.raises(CertificateError):
                wl.replay_certificate(tampered, spec, inputs)


def test_certificates_optional():
    verdict = wl.cops_robber_wins(
        wl.local_fwl_spec(1), wl.path_graph(3), want_certificate=False
    )
    assert verdict.certificate is None
    verdict = wl.spoiler_wins(
        wl.local_fwl_spec(1), wl.path_graph(3), wl.path_graph(3), want_certificate=False
    )
    assert verdict.certificate is None


# ---------------------------------------------------------------------------
# Cross-validation against treewidth on all small classes


def test_pursuit_k2_matches_treewidth(classes5):
    spec = wl.fwl_spec(2)
    for g in classes5:
        verdict = wl.cops_robber_wins(spec, g, want_certificate=False)
        assert (verdict.winner == "cops") == (wl.treewidth(g) <= 2)


def test_pursuit_replay_round_trip(classes4):
    spec = wl.fwl_spec(2)
    for g in classes4:
        verdict = wl.cops_robber_wins(spec, g)
        assert wl.replay_certificate(verdict, spec, g)


def test_pursuit_moves_match_networkx_components(classes4, classes5):
    """The component table against networkx on every reachable state: a
    put's replies are the components of Robber's component minus the new
    pebbles; a removal grows it to its component of g minus the kept
    pebbles.  Keys hold components as node masks, so each is compared
    as node sets, and positions up to pebble order, so each is compared
    with its canonical form.  The uneven schedules put in several stages and
    keep 3 of 4 or 2 of 5 pebbles in a removal."""
    def nodes(key: tuple) -> frozenset:
        return frozenset(mask_nodes(key[2]))

    cases = [(wl.fwl_spec(2), classes5), (wl.drfwl2_spec(1), classes5)]
    cases += [(spec, classes4) for spec in UNEVEN_SPECS.values()]
    for spec, classes in cases:
        phases = set()
        for g in classes:
            nx_g = nx.Graph()
            nx_g.add_nodes_from(range(g.n))
            nx_g.add_edges_from(g.edge_set)
            game = _PursuitMoves(spec, g)
            expected = sorted(map(frozenset, nx.connected_components(nx_g)), key=min)
            assert [nodes(key) for key in game.initial()] == expected
            seen = set(game.initial())
            frontier = list(seen)
            while frontier:
                key = frontier.pop()
                phase, pos, comp = *key[:2], nodes(key)
                phases.add(phase)
                for (tag, payload), succs in game.moves(key):
                    if tag == "put":
                        rest = nx_g.subgraph(comp - set(payload))
                        expected = sorted(map(frozenset, nx.connected_components(rest)), key=min)
                        assert [nodes(s) for s in succs] == expected
                        nxt = _next_phase(spec, phase)
                        assert all(s[1] == _pebble_order(pos + payload) for s in succs)
                    else:
                        kept = tuple(pos[i] for i in payload)
                        rest = nx_g.subgraph(set(range(g.n)) - set(kept))
                        grown = frozenset(nx.node_connected_component(rest, min(comp)))
                        canon = _pebble_order(kept)
                        assert [(s[1], nodes(s)) for s in succs] == [(canon, grown)]
                    for succ in succs:
                        if succ not in seen:
                            seen.add(succ)
                            frontier.append(succ)
        assert len(phases) == spec.n_stages + spec.m_stages + 1  # every stage reached


def played_order(pebbles: tuple) -> tuple:
    """The identity in place of ``_pebble_order``: both games then key
    positions in the order the pebbles were played.  With
    :func:`no_license` too, they play the full game."""
    return pebbles


def no_license(spec: wl.GfwlSpec, g: wl.Graph) -> bool:
    """``False`` in place of ``_distinct_puts``: both games then also
    put on pebbled nodes."""
    return False


def relabeled_class_pairs(n_max: int) -> list:
    """Every unordered pair of classes n <= ``n_max``, equal pairs
    included, with the second graph relabeled."""
    rng = random.Random(n_max)
    return [
        (g, h.permuted(rng.sample(range(h.n), h.n)))
        for g, h in itertools.combinations_with_replacement(wl.connected_classes(n_max), 2)
    ]


# Specs and the largest class size on which the pebble-order quotient is
# checked against the full game.
QUOTIENT_SPECS = {
    **wl.BUILTIN_SPECS,
    "fwl_1": wl.fwl_spec(1),
    "drfwl2_2": wl.drfwl2_spec(2),
    "fwl_3": wl.fwl_spec(3),
    "fwl_plus_2_2": wl.fwl_plus_spec(2, 2),
    **UNEVEN_SPECS,
}
QUOTIENT_CASES = [
    *((name, 6) for name in [*wl.BUILTIN_SPECS, "fwl_1", "drfwl2_2"]),
    ("fwl_3", 5),
    ("fwl_plus_2_2", 5),
    *((name, 4) for name in UNEVEN_SPECS),
    *(pytest.param(name, 6, marks=pytest.mark.slow) for name in ["fwl_3", "fwl_plus_2_2", *UNEVEN_SPECS]),
]


@pytest.mark.parametrize("name, n_max", QUOTIENT_CASES)
def test_pebble_order_quotient_matches_full_game(name, n_max, request, monkeypatch):
    """Keys up to pebble order, in the distinct-node arena where it is
    licensed, against the full game, with the canonicalization replaced
    by the identity and the license switched off: the winners must
    agree, and the quotient's certificates must replay."""
    spec, classes = QUOTIENT_SPECS[name], request.getfixturevalue(f"classes{n_max}")
    quotient = [wl.cops_robber_wins(spec, g) for g in classes]
    for g, verdict in zip(classes, quotient):
        assert wl.replay_certificate(verdict, spec, g), wl.emit_graph6(g)
    monkeypatch.setattr("wlpower.games._pebble_order", played_order)
    monkeypatch.setattr("wlpower.refinement._distinct_puts", no_license)
    full = [wl.cops_robber_wins(spec, g, want_certificate=False) for g in classes]
    assert [v.winner for v in quotient] == [v.winner for v in full]
    assert sum(v.states_explored for v in quotient) < sum(v.states_explored for v in full)


# Specs and the largest class size on which the bijection game's joint
# pebble-order quotient is checked against the full game.
BIJECTION_QUOTIENT_CASES = [
    *((name, 5) for name in wl.BUILTIN_SPECS),
    *((name, 4) for name in QUOTIENT_SPECS if name not in wl.BUILTIN_SPECS),
    # k2_t3_j023 (k + t = 5) stays at n <= 4, the case above
    *(pytest.param(name, 5, marks=pytest.mark.slow) for name in ["fwl_plus_2_2", "k3_t1_i023"]),
]


@pytest.mark.parametrize("name, n_max", BIJECTION_QUOTIENT_CASES)
def test_bijection_pebble_order_quotient_matches_full_game(name, n_max, monkeypatch):
    """Bijection keys up to joint pebble order, in the distinct-node
    arena where it is licensed, against the full game (as in
    :func:`test_pebble_order_quotient_matches_full_game`), on every
    unordered pair of classes, equal pairs included, with the second
    graph relabeled: the winners must agree, the quotient's
    certificates must replay, and the quotient must explore fewer
    states in total."""
    spec, pairs = QUOTIENT_SPECS[name], relabeled_class_pairs(n_max)
    quotient = [wl.spoiler_wins(spec, g, h) for g, h in pairs]
    for (g, h), verdict in zip(pairs, quotient):
        assert wl.replay_certificate(verdict, spec, (g, h)), (wl.emit_graph6(g), wl.emit_graph6(h))
    monkeypatch.setattr("wlpower.games._pebble_order", played_order)
    monkeypatch.setattr("wlpower.refinement._distinct_puts", no_license)
    full = [wl.spoiler_wins(spec, g, h, want_certificate=False) for g, h in pairs]
    assert [v.winner for v in quotient] == [v.winner for v in full]
    assert sum(v.states_explored for v in quotient) < sum(v.states_explored for v in full)


# Specs on which every reachable position is checked to be sorted: the
# built-in specs, ``fwl_plus_spec(2, 2)`` and both uneven schedules.  The
# two with t >= 2 hold a partial aux part in an update round.
SORTED_SPECS = {**wl.BUILTIN_SPECS, "fwl_plus_2_2": wl.fwl_plus_spec(2, 2), **UNEVEN_SPECS}


@pytest.mark.parametrize("name", sorted(SORTED_SPECS))
def test_every_reachable_position_is_sorted(name, classes4):
    """The pebble order sorts the whole position in every phase: on
    every reachable state of the pursuit game on the classes n <= 4, the
    pebbled nodes are sorted, and on every reachable state of the
    bijection game on every unordered pair of them, the second graph
    relabeled, the ``(g node, h node)`` pairs are.  A rule that sorts
    the main part and the aux part of an update round apart fails this
    under the t >= 2 specs."""
    spec = SORTED_SPECS[name]
    unsorted = []
    for g in classes4:
        solver = _CrSolver(spec, g, DEFAULT_MAX_STATES)
        solver.generate()
        unsorted += [key for key in solver.states.keys if list(key[1]) != sorted(key[1])]
    for g, h in relabeled_class_pairs(4):
        solver = ef_solver(spec, g, h, DEFAULT_MAX_STATES)
        solver.generate()
        unsorted += [key for key in solver.states.keys if list(zip(*key[1:])) != sorted(zip(*key[1:]))]
    assert not unsorted, unsorted[:5]


def keys_by_type(self, phase: tuple, pos: tuple) -> tuple:
    """``_TupleTable.put_keys`` with every Hall row equal: each choice's
    key is its type code, so puts pair choices of one type, as before
    they applied Hall's condition one move ahead."""
    _, codes, _ = self.put_row(phase, pos)
    buckets: dict = {}
    for index, code in enumerate(codes):
        buckets.setdefault(code, []).append(index)
    return codes, sorted(codes), buckets


@pytest.mark.parametrize("name, n_max", BIJECTION_QUOTIENT_CASES)
def test_lookahead_matches_pairing_by_type(name, n_max, request, monkeypatch):
    """Hall's condition one move ahead against pairing by type alone, on
    every unordered pair of classes, equal pairs included, with the
    second graph relabeled: the winners must agree, the lookahead must
    explore no more states on any pair and fewer in total, and its
    certificates must replay, from memory and from their JSON dump."""
    spec, classes = QUOTIENT_SPECS[name], request.getfixturevalue(f"classes{n_max}")
    rng = random.Random(n_max + 1)
    pairs = [
        (g, h.permuted(rng.sample(range(h.n), h.n)))
        for g, h in itertools.combinations_with_replacement(classes, 2)
    ]
    ahead = [wl.spoiler_wins(spec, g, h) for g, h in pairs]
    for (g, h), verdict in zip(pairs, ahead):
        assert wl.replay_certificate(verdict, spec, (g, h)), (wl.emit_graph6(g), wl.emit_graph6(h))
        assert wl.replay_certificate(json_round_trip(verdict), spec, (g, h))
    monkeypatch.setattr("wlpower.refinement._TupleTable.put_keys", keys_by_type)
    by_type = [wl.spoiler_wins(spec, g, h, want_certificate=False) for g, h in pairs]
    assert [v.winner for v in ahead] == [v.winner for v in by_type]
    assert all(a.states_explored <= b.states_explored for a, b in zip(ahead, by_type))
    assert sum(v.states_explored for v in ahead) < sum(v.states_explored for v in by_type)


# ---------------------------------------------------------------------------
# The spec space


def index_seqs(end: int) -> list[tuple[int, ...]]:
    """Every strictly increasing sequence running from 0 to ``end``."""
    return [(0, *mid, end) for size in range(end) for mid in itertools.combinations(range(1, end), size)]


def spec_space() -> list[wl.GfwlSpec]:
    """Every valid spec with k <= 3 and t <= 2: all index sequences, every
    selector kind, and delta in {1, 2} where a kind takes one."""
    rs = [wl.RSelector("all_k_tuples"), *(wl.RSelector("distance_restricted", d) for d in (1, 2))]
    fs = [
        *(wl.FSelector(kind) for kind in ("all_t_tuples", "all_nodes", "local_neighbor_union")),
        *(wl.FSelector("delta_ball_intersection", d) for d in (1, 2)),
    ]
    specs = []
    for k, t in itertools.product((1, 2, 3), (1, 2)):
        for i_seq, j_seq, r, f in itertools.product(index_seqs(k), index_seqs(t), rs, fs):
            try:
                specs.append(wl.GfwlSpec(k, t, i_seq, j_seq, r, f))
            except ConfigurationError:
                pass
    return specs


SPEC_SPACE = spec_space()
CLASSES4 = wl.connected_classes(4)


def test_spec_space_covers_every_selector_kind():
    assert len(SPEC_SPACE) == 67
    assert {spec.r_selector.kind for spec in SPEC_SPACE} == set(wl.RSelector._KINDS)
    assert {spec.f_selector.kind for spec in SPEC_SPACE} == set(wl.FSelector._KINDS)


def raises_closure_error(solve) -> bool:
    try:
        solve()
    except ClosureError:
        return True
    return False


def pursuit_agrees(spec: wl.GfwlSpec, x: wl.Graph) -> bool:
    """Check the pursuit game on ``x``: every command refuses a graph
    whose replacements leave the universe, or none does; the quotient
    wins as the full game does, and its certificate replays, from memory
    and from its JSON dump.  True iff ``x`` is not refused."""
    try:
        pursuit = wl.cops_robber_wins(spec, x)
    except ClosureError:
        pursuit = None
    refused = {
        pursuit is None,
        raises_closure_error(lambda: wl.stabilize(spec, x)),
        bool(wl.validate_spec(spec, x).closure_violations),
    }
    assert len(refused) == 1, (spec, wl.emit_graph6(x))
    if pursuit is None:
        return False
    assert wl.replay_certificate(pursuit, spec, x)
    assert wl.replay_certificate(json_round_trip(pursuit), spec, x)
    with mock.patch("wlpower.games._pebble_order", played_order), mock.patch(
        "wlpower.refinement._distinct_puts", no_license
    ):
        full = wl.cops_robber_wins(spec, x, want_certificate=False)
    assert pursuit.winner == full.winner, (spec, wl.emit_graph6(x))
    return True


def bijection_agrees(spec: wl.GfwlSpec, g: wl.Graph, h: wl.Graph, closed: bool) -> None:
    """Check the bijection game on ``(g, h)``: it refuses the pair when
    either graph is refused (``closed`` False), and otherwise follows
    refinement (Theorem 2), wins as the full game does, and its
    certificate replays, from memory and from its JSON dump; pairing
    choices by type alone (:func:`keys_by_type`) wins alike in no fewer
    states."""
    if not closed:
        assert raises_closure_error(lambda: wl.spoiler_wins(spec, g, h))
        return
    bijection = wl.spoiler_wins(spec, g, h)
    expected = "spoiler" if wl.distinguish(spec, g, h) else "duplicator"
    assert bijection.winner == expected, (spec, wl.emit_graph6(g), wl.emit_graph6(h))
    assert wl.replay_certificate(bijection, spec, (g, h))
    assert wl.replay_certificate(json_round_trip(bijection), spec, (g, h))
    with mock.patch("wlpower.games._pebble_order", played_order), mock.patch(
        "wlpower.refinement._distinct_puts", no_license
    ):
        full = wl.spoiler_wins(spec, g, h, want_certificate=False)
    assert bijection.winner == full.winner, (spec, wl.emit_graph6(g), wl.emit_graph6(h))
    with mock.patch("wlpower.refinement._TupleTable.put_keys", keys_by_type):
        by_type = wl.spoiler_wins(spec, g, h, want_certificate=False)
    assert bijection.winner == by_type.winner, (spec, wl.emit_graph6(g), wl.emit_graph6(h))
    assert bijection.states_explored <= by_type.states_explored


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPEC_SPACE), st.sampled_from(CLASSES4), st.sampled_from(CLASSES4))
def test_spec_space_games_agree(spec, g, h):
    """A drawn spec and pair of classes n <= 4 pass both games' checks."""
    closed = [pursuit_agrees(spec, x) for x in (g, h)]
    bijection_agrees(spec, g, h, all(closed))


@pytest.mark.slow
@pytest.mark.parametrize("spec", SPEC_SPACE, ids=[f"spec{i}" for i in range(len(SPEC_SPACE))])
def test_spec_space_games_agree_exhaustive(spec):
    """Every spec on every class n <= 4 and every unordered pair of them,
    equal pairs included, passes both games' checks."""
    closed = [pursuit_agrees(spec, x) for x in CLASSES4]
    for (g, g_ok), (h, h_ok) in itertools.combinations_with_replacement(zip(CLASSES4, closed), 2):
        bijection_agrees(spec, g, h, g_ok and h_ok)


# ---------------------------------------------------------------------------
# Distinct-node arenas


def spec_name(spec: wl.GfwlSpec) -> str:
    seqs = "".join(map(str, spec.i_seq)), "".join(map(str, spec.j_seq))
    return f"k{spec.k}_t{spec.t}_i{seqs[0]}_j{seqs[1]}_{spec.f_selector.kind}"


# The specs whose selectors ignore the graph, the class that
# ``_distinct_puts`` licenses: 28 of the spec space, and both uneven
# schedules.
LICENSED_SPECS = {
    **{
        spec_name(spec): spec
        for spec in SPEC_SPACE
        if spec.r_selector.kind == "all_k_tuples" and spec.f_selector.kind in ("all_nodes", "all_t_tuples")
    },
    **UNEVEN_SPECS,
}


def test_licensed_specs():
    assert len(LICENSED_SPECS) == 28 + len(UNEVEN_SPECS)
    classes = [*CLASSES4, wl.empty_graph(0), wl.empty_graph(5)]
    for spec in SPEC_SPACE + list(UNEVEN_SPECS.values()):
        licensed = spec in LICENSED_SPECS.values()
        assert [_distinct_puts(spec, g) for g in classes] == [licensed and g.n >= spec.k + spec.t for g in classes]


def pursuit_size(spec: wl.GfwlSpec) -> int:
    """The largest class size of the exhaustive pursuit check: 6 for
    k + t <= 3, else 5, which the license reaches up to k + t = 5."""
    return 6 if spec.k + spec.t <= 3 else 5


def bijection_size(spec: wl.GfwlSpec) -> int:
    """The largest class size of the exhaustive bijection check: 4, or
    k + t where that is larger."""
    return max(4, spec.k + spec.t)


def assert_distinct_pursuit_matches_full_game(spec: wl.GfwlSpec, classes: list) -> None:
    """The distinct-node pursuit arena against the full game on every
    class: the winners must agree, the distinct arena's certificates must
    replay, from memory and from their JSON dump, and it must explore
    fewer states in total."""
    distinct = [wl.cops_robber_wins(spec, g) for g in classes]
    for g, verdict in zip(classes, distinct):
        assert wl.replay_certificate(verdict, spec, g), wl.emit_graph6(g)
        assert wl.replay_certificate(json_round_trip(verdict), spec, g), wl.emit_graph6(g)
    with mock.patch("wlpower.refinement._distinct_puts", no_license):
        full = [wl.cops_robber_wins(spec, g, want_certificate=False) for g in classes]
    assert [v.winner for v in distinct] == [v.winner for v in full]
    assert sum(v.states_explored for v in distinct) < sum(v.states_explored for v in full)


def assert_distinct_bijection_matches_full_game(spec: wl.GfwlSpec, pairs: list) -> None:
    """The distinct-node bijection arena against the full game on each
    pair: the winners must agree, the distinct arena's certificates must
    replay, from memory and from their JSON dump, and it must explore
    fewer states in total."""
    distinct = [wl.spoiler_wins(spec, g, h) for g, h in pairs]
    for (g, h), verdict in zip(pairs, distinct):
        assert wl.replay_certificate(verdict, spec, (g, h)), (wl.emit_graph6(g), wl.emit_graph6(h))
        assert wl.replay_certificate(json_round_trip(verdict), spec, (g, h))
    with mock.patch("wlpower.refinement._distinct_puts", no_license):
        full = [wl.spoiler_wins(spec, g, h, want_certificate=False) for g, h in pairs]
    assert [v.winner for v in distinct] == [v.winner for v in full]
    assert sum(v.states_explored for v in distinct) < sum(v.states_explored for v in full)


SMALL_LICENSED = [name for name, spec in LICENSED_SPECS.items() if spec.k + spec.t <= 3]


@pytest.mark.parametrize("name", SMALL_LICENSED)
def test_distinct_pursuit_matches_full_game(name):
    assert_distinct_pursuit_matches_full_game(LICENSED_SPECS[name], wl.connected_classes(5))


@pytest.mark.parametrize("name", SMALL_LICENSED)
def test_distinct_bijection_matches_full_game(name):
    assert_distinct_bijection_matches_full_game(LICENSED_SPECS[name], relabeled_class_pairs(4))


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LICENSED_SPECS))
def test_distinct_arenas_match_full_game_exhaustive(name):
    """Every licensed spec: the pursuit on every class n <= 6 for k + t
    <= 3 and n <= 5 otherwise, the bijection game on every pair of
    classes n <= max(4, k + t), so every spec meets graphs the license
    applies to."""
    spec = LICENSED_SPECS[name]
    assert_distinct_pursuit_matches_full_game(spec, wl.connected_classes(pursuit_size(spec)))
    assert_distinct_bijection_matches_full_game(spec, relabeled_class_pairs(bijection_size(spec)))


@pytest.mark.slow
@pytest.mark.parametrize("spec", [wl.fwl_spec(1), wl.fwl_spec(2)], ids=["fwl_1", "2fwl"])
def test_distinct_bijection_matches_full_game_on_furer_pairs(spec):
    # The Fürer pairs of C4 and K4 - e (8 and 12 nodes), each against
    # its twisted copy and, relabeled, against itself.
    pairs = []
    for f in (wl.cycle_graph(4), wl.parse_graph6("C^")):
        g, h = furer_pair(f)
        pairs += [(g, h), (g, g.permuted(random.Random(g.n).sample(range(g.n), g.n)))]
    assert_distinct_bijection_matches_full_game(spec, pairs)
