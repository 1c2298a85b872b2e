"""Tuple-universe and aggregation-set selectors: shapes, invariance,
equivariance, and closure under homomorphisms."""

import itertools
import random
import time

import pytest

import wlpower as wl
from wlpower.errors import BudgetError, ConfigurationError, DomainError, deadline
from wlpower.selectors import f_set, r_set


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> wl.Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return wl.Graph(n, edges)


# ---------------------------------------------------------------------------
# Construction and validation


def test_selector_kind_validation():
    with pytest.raises(ConfigurationError):
        wl.RSelector("nope")
    with pytest.raises(ConfigurationError):
        wl.FSelector("nope")
    with pytest.raises(ConfigurationError):
        wl.RSelector("distance_restricted")  # delta required
    with pytest.raises(ConfigurationError):
        wl.RSelector("distance_restricted", delta=-1)
    with pytest.raises(ConfigurationError):
        wl.RSelector("all_k_tuples", delta=2)  # delta forbidden
    with pytest.raises(ConfigurationError):
        wl.FSelector("delta_ball_intersection")


def test_selector_arity_validation():
    wl.RSelector("distance_restricted", delta=1).validate_arity(2)
    with pytest.raises(ConfigurationError):
        wl.RSelector("distance_restricted", delta=1).validate_arity(1)
    wl.FSelector("all_nodes").validate_arity(2, 1)
    with pytest.raises(ConfigurationError):
        wl.FSelector("all_nodes").validate_arity(2, 2)
    with pytest.raises(ConfigurationError):
        wl.FSelector("local_neighbor_union").validate_arity(1, 2)
    with pytest.raises(ConfigurationError):
        wl.FSelector("delta_ball_intersection", delta=1).validate_arity(1, 1)
    wl.FSelector("all_t_tuples").validate_arity(3, 2)


def test_selector_json_round_trip():
    for sel in (
        wl.RSelector("all_k_tuples"),
        wl.RSelector("distance_restricted", delta=2),
        wl.FSelector("all_nodes"),
        wl.FSelector("delta_ball_intersection", delta=1),
    ):
        cls = type(sel)
        assert cls.from_json_dict(sel.to_json_dict()) == sel
    with pytest.raises(ConfigurationError):
        wl.RSelector.from_json_dict({"delta": 1})


# ---------------------------------------------------------------------------
# Set contents


def test_r_set_all_tuples():
    p3 = wl.path_graph(3)
    assert r_set(wl.RSelector("all_k_tuples"), 1, p3) == {(0,), (1,), (2,)}
    assert len(r_set(wl.RSelector("all_k_tuples"), 2, p3)) == 9
    assert r_set(wl.RSelector("all_k_tuples"), 2, wl.empty_graph(0)) == set()


def test_r_set_distance_restricted():
    p3 = wl.path_graph(3)
    near = r_set(wl.RSelector("distance_restricted", delta=1), 2, p3)
    assert near == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}
    assert len(r_set(wl.RSelector("distance_restricted", delta=2), 2, p3)) == 9
    two = wl.disjoint_union(wl.complete_graph(2), wl.complete_graph(2))
    far = r_set(wl.RSelector("distance_restricted", delta=5), 2, two)
    assert (0, 2) not in far and (0, 1) in far


def test_f_set_kinds():
    p3 = wl.path_graph(3)
    assert f_set(wl.FSelector("all_nodes"), 1, p3, (0, 2)) == {(0,), (1,), (2,)}
    assert f_set(wl.FSelector("local_neighbor_union"), 1, p3, (0, 2)) == {(1,)}
    assert f_set(wl.FSelector("local_neighbor_union"), 1, p3, (0, 1)) == {(0,), (1,), (2,)}
    assert f_set(wl.FSelector("delta_ball_intersection", delta=1), 1, p3, (0, 2)) == {(1,)}
    assert f_set(wl.FSelector("delta_ball_intersection", delta=1), 1, p3, (0, 0)) == {(0,), (1,)}
    assert len(f_set(wl.FSelector("all_t_tuples"), 2, p3, (0, 1))) == 9
    two = wl.disjoint_union(wl.complete_graph(2), wl.complete_graph(2))
    assert f_set(wl.FSelector("delta_ball_intersection", delta=3), 1, two, (0, 2)) == set()


def test_f_set_validates_tuple():
    p3 = wl.path_graph(3)
    with pytest.raises(DomainError):
        f_set(wl.FSelector("all_nodes"), 1, p3, (0, 9))
    with pytest.raises(ConfigurationError):
        f_set(wl.FSelector("delta_ball_intersection", delta=1), 1, p3, (0, 1, 2))


# ---------------------------------------------------------------------------
# Invariance / equivariance


ALL_R = [wl.RSelector("all_k_tuples"), wl.RSelector("distance_restricted", delta=1)]
ALL_F = [
    wl.FSelector("all_nodes"),
    wl.FSelector("local_neighbor_union"),
    wl.FSelector("delta_ball_intersection", delta=1),
]


def test_r_invariance_builtin_selectors():
    rng = random.Random(23)
    for sel in ALL_R:
        for _ in range(5):
            g = random_graph(rng, rng.randint(1, 6))
            assert wl.check_r_invariance(sel, 2, g, trials=30).passed


def test_f_equivariance_builtin_selectors():
    rng = random.Random(29)
    for sel in ALL_F:
        for _ in range(4):
            g = random_graph(rng, rng.randint(1, 5))
            assert wl.check_f_equivariance(sel, 2, 1, g, trials=15).passed


def test_invariance_negative_control():
    # label-dependent universe: every pair involving node 0
    def broken(g):
        return {(0, w) for w in range(g.n)}

    g = wl.path_graph(3)
    report = wl.check_r_invariance(broken, 2, g, trials=50)
    assert not report.passed
    assert report.violations and "perm" in report.violations[0]


def test_equivariance_negative_control():
    def broken(g, v):
        return {(0,)} if g.n else set()

    report = wl.check_f_equivariance(broken, 2, 1, wl.path_graph(3), trials=50)
    assert not report.passed


# ---------------------------------------------------------------------------
# Hom-closedness


def small_pool():
    return [
        wl.complete_graph(2),
        wl.path_graph(3),
        wl.complete_graph(3),
        wl.cycle_graph(4),
        wl.star_graph(3),
    ]


def test_builtin_selectors_hom_closed():
    pool = small_pool()
    for sel in ALL_R:
        assert wl.check_hom_closed(sel, 2, None, pool).passed
    for sel in ALL_F:
        assert wl.check_hom_closed(sel, 2, 1, pool).passed


def test_hom_closed_counts_maps():
    pool = [wl.complete_graph(2), wl.complete_graph(3)]
    report = wl.check_hom_closed(wl.RSelector("all_k_tuples"), 2, None, pool)
    assert report.pairs_checked == 4
    assert report.maps_checked > 0 and not report.truncated


def test_hom_closed_negative_control():
    # tuples of maximum-degree nodes: invariant but not hom-closed
    def broken(g):
        if g.n == 0:
            return set()
        top = max(range(g.n), key=g.degree)
        cap = g.degree(top)
        return {(u, u) for u in range(g.n) if g.degree(u) == cap}

    report = wl.check_hom_closed(broken, 2, None, [wl.complete_graph(2), wl.path_graph(3)])
    assert not report.passed
    ce = report.counterexamples[0]
    assert set(ce) >= {"g", "h", "hom"}


def test_hom_closed_r_sets_computed_once_per_graph():
    calls = []

    def universe(g):
        calls.append(g)
        return wl.r_set(wl.RSelector("all_k_tuples"), 2, g)

    pool = small_pool()
    assert wl.check_hom_closed(universe, 2, None, pool).passed
    assert len(calls) == len(pool)


def test_hom_closed_f_sets_computed_once_per_graph_and_tuple():
    calls = []

    def neighbors(g, v):
        calls.append((g, v))
        return wl.f_set(wl.FSelector("local_neighbor_union"), 1, g, v)

    pool = small_pool()
    assert wl.check_hom_closed(neighbors, 2, 1, pool).passed
    assert len(calls) == len(set(calls)) == sum(g.n ** 2 for g in pool)


def test_hom_closed_deadline_is_checked_inside_a_pair():
    # P7 -> K7 alone runs to the 50,000-map cap, checking 49 tuples per
    # map: seconds of work inside one pool pair.
    pool = [wl.path_graph(7), wl.complete_graph(7)]
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="time limit"):
        with deadline(50, start):
            wl.check_hom_closed(wl.fwl_spec(2).f_selector, 2, 1, pool)
    assert time.perf_counter() - start < 0.5


def test_hom_closed_truncation(monkeypatch):
    monkeypatch.setattr(wl.selectors, "_MAX_MAPS_PER_PAIR", 3)
    pool = [wl.empty_graph(4)]
    report = wl.check_hom_closed(wl.RSelector("all_k_tuples"), 2, None, pool)
    assert report.truncated


# ---------------------------------------------------------------------------
# Symmetry in the entries of a tuple (what a pebble-order quotient of the
# games relies on)

SYMMETRY_R_CASES = [
    *((wl.RSelector("all_k_tuples"), k) for k in (1, 2, 3)),
    *((wl.RSelector("distance_restricted", d), 2) for d in (1, 2)),
]
SYMMETRY_F_CASES = [
    *((wl.FSelector("all_t_tuples"), k, t) for k, t in ((1, 2), (2, 1), (2, 2))),
    *((wl.FSelector(kind), k, 1) for kind in ("all_nodes", "local_neighbor_union") for k in (1, 2, 3)),
    *((wl.FSelector("delta_ball_intersection", d), 2, 1) for d in (1, 2)),
]


def test_selector_kinds_cover_symmetry_cases():
    # A new selector kind must join the symmetry pin below.
    assert {sel.kind for sel, _ in SYMMETRY_R_CASES} == set(wl.RSelector._KINDS)
    assert {sel.kind for sel, _, _ in SYMMETRY_F_CASES} == set(wl.FSelector._KINDS)


def permutations_closed(tuples: set) -> bool:
    return all(p in tuples for tup in tuples for p in itertools.permutations(tup))


@pytest.mark.parametrize("sel, k", SYMMETRY_R_CASES, ids=repr)
def test_r_set_closed_under_entry_permutations(graphs5, sel, k):
    for g in graphs5:
        assert permutations_closed(r_set(sel, k, g)), g


@pytest.mark.parametrize("sel, k, t", SYMMETRY_F_CASES, ids=repr)
def test_f_set_depends_on_entry_set(graphs5, sel, k, t):
    # f_set(v) is the same for every permutation of v (compared against
    # the sorted permutation), and all_t_tuples sets are closed under
    # permuting the entries of u.
    for g in graphs5:
        sets = {v: f_set(sel, t, g, v) for v in itertools.product(range(g.n), repeat=k)}
        for v, selected in sets.items():
            assert selected == sets[tuple(sorted(v))], (g, v)
            if sel.kind == "all_t_tuples":
                assert permutations_closed(selected), (g, v)
