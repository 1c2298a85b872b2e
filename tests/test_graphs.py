"""Graph values, codecs, and the combinatorial toolbox.

Independent routes used here: networkx for graph6 codecs and isomorphism,
numpy adjacency powers for closed-walk counts, brute-force orbit
enumeration for isomorphism classes, and elimination orderings for
treewidth.
"""

import copy
import hashlib
import itertools
import json
import pickle
import random
import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlpower as wl
from wlpower.errors import BudgetError, DomainError, GraphFormatError, deadline
from wlpower.graphs import _canonical_bits, _graph6_text, _new_node_has_least_key, component_masks, node_mask

# ---------------------------------------------------------------------------
# Helpers and strategies


def to_nx(g: wl.Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edge_set)
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> wl.Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return wl.Graph(n, edges)


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return wl.Graph(n, edges)


@st.composite
def graph_with_permutation(draw, max_n: int = 8):
    g = draw(graphs(max_n=max_n))
    perm = draw(st.permutations(list(range(g.n))))
    return g, list(perm)


# ---------------------------------------------------------------------------
# Graph basics and builders


def test_graph_normalizes_edges():
    g = wl.Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edge_set == frozenset({(0, 2), (1, 2)})
    assert g.edge_count == 2
    assert g.neighbors(2) == frozenset({0, 1})
    assert g.degree(0) == 1 and g.degree(1) == 1


def test_graph_rejects_bad_edges():
    with pytest.raises(DomainError):
        wl.Graph(2, [(0, 2)])
    with pytest.raises(DomainError):
        wl.Graph(2, [(0, 0)])
    with pytest.raises(DomainError):
        wl.Graph(-1)


@pytest.mark.parametrize(
    "n, edges",
    [
        (2.5, []),
        ("3", []),
        (True, []),
        (3, [(0, 1.0)]),
        (3, [("0", 1)]),
        (3, [(True, 2)]),
        (3, [(0, None)]),
    ],
)
def test_graph_rejects_non_integers(n, edges):
    with pytest.raises(DomainError):
        wl.Graph(n, edges)


def test_graph_takes_numpy_integers():
    g = wl.Graph(np.int64(3), [(np.int64(0), np.int64(1)), (1, 2)])
    assert g == wl.path_graph(3)
    assert type(g.n) is int and all(type(m) is int for m in g.adj_masks)
    assert all(type(x) is int for edge in g.edge_set for x in edge)
    assert wl.treewidth(g) == 1
    assert wl.canonical_form(g) == wl.canonical_form(wl.path_graph(3))
    assert component_masks(g.adj_masks, node_mask([1])) == [node_mask([0]), node_mask([2])]


def test_graph_is_immutable():
    g = wl.Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_graph_pickles_and_copies():
    # Worker processes receive graphs by pickle; the immutable slots must
    # not stop the copy from being rebuilt.
    rng = random.Random(11)
    for g in [wl.Graph(0), *(random_graph(rng, n) for n in range(1, 10) for _ in range(3))]:
        for copied in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(copied) is wl.Graph
            assert copied == g and hash(copied) == hash(g) and copied.n == g.n
            assert copied.edge_set == g.edge_set


def test_builders():
    assert wl.empty_graph(3).edge_count == 0
    assert wl.complete_graph(4).edge_count == 6
    assert wl.path_graph(4).edge_set == frozenset({(0, 1), (1, 2), (2, 3)})
    assert wl.cycle_graph(3).edge_set == frozenset({(0, 1), (1, 2), (0, 2)})
    with pytest.raises(DomainError):
        wl.cycle_graph(2)
    star = wl.star_graph(3)
    assert star.n == 4 and star.degree(0) == 3
    both = wl.disjoint_union(wl.complete_graph(2), wl.path_graph(3))
    assert both.n == 5
    assert (0, 1) in both.edge_set and (2, 3) in both.edge_set and (3, 4) in both.edge_set


def test_permuted_relabels():
    g = wl.path_graph(3)
    h = g.permuted([2, 0, 1])  # node 0 -> 2, 1 -> 0, 2 -> 1
    assert h.edge_set == frozenset({(0, 2), (0, 1)})


def test_graph_value_semantics_exhaustive():
    # Every labelled graph on <= 5 nodes, its edges given in several
    # orders and orientations: the edge set, equality, hashing, edge
    # queries and relabeling depend on the edge set alone.
    rng = random.Random(5)
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rng.shuffle(shuffled)
            forms = [edges, shuffled, [(v, u) for u, v in reversed(edges)], edges + shuffled]
            g = wl.Graph(n, edges)
            assert g.edge_set == frozenset(edges)
            assert g.edge_count == len(edges)
            for form in forms:
                other = wl.Graph(n, form)
                assert other == g and hash(other) == hash(g)
                assert other.edge_set == g.edge_set
            assert wl.Graph(n, g.edge_set) == g
            assert wl.Graph(n + 1, edges) != g
            for u in range(-2, n + 2):
                for v in range(-2, n + 2):
                    assert g.has_edge(u, v) is ((min(u, v), max(u, v)) in g.edge_set)
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = [perm.index(u) for u in range(n)]
            moved = g.permuted(perm)
            assert moved.edge_set == frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
            assert moved.permuted(inverse) == g
            tail = wl.path_graph(rng.randrange(4))
            union = wl.disjoint_union(g, tail)
            assert union.n == n + tail.n
            assert union.edge_set == g.edge_set | {(u + n, v + n) for u, v in tail.edge_set}
            assert wl.disjoint_union(g) == g == wl.disjoint_union(wl.Graph(0), g)


# ---------------------------------------------------------------------------
# graph6 codec


def test_parse_graph6_hand_decoded():
    assert wl.parse_graph6("?") == wl.empty_graph(0)
    assert wl.parse_graph6("@") == wl.empty_graph(1)
    # 'A_': n=2, body byte '_' = 63+32 -> bits 100000 -> edge (0,1)
    assert wl.parse_graph6("A_") == wl.complete_graph(2)
    assert wl.parse_graph6("A?") == wl.empty_graph(2)
    # 'Bw': n=3, body 'w' = 63+56 -> bits 111000 -> all three pairs
    assert wl.parse_graph6("Bw") == wl.complete_graph(3)
    assert wl.parse_graph6(">>graph6<<A_") == wl.complete_graph(2)


def test_emit_graph6_roundtrip_known():
    for g in (wl.empty_graph(0), wl.complete_graph(3), wl.path_graph(5), wl.cycle_graph(6)):
        assert wl.parse_graph6(wl.emit_graph6(g)) == g


def test_graph6_matches_networkx():
    # every body length mod 6 occurs among n = 0..20; 62 is the largest
    # short-form node count
    rng = random.Random(7)
    cases = [random_graph(rng, n) for n in [*range(21), 62] for _ in range(2)]
    cases += [wl.complete_graph(n) for n in [*range(21), 62]]
    for g in cases:
        line = wl.emit_graph6(g)
        via_nx = nx.from_graph6_bytes(line.encode())
        assert set(via_nx.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in via_nx.edges} == set(g.edge_set)
        ours = wl.parse_graph6(nx.to_graph6_bytes(to_nx(g), header=False).decode().strip())
        assert ours == g


def test_parse_graph6_errors():
    with pytest.raises(GraphFormatError):
        wl.parse_graph6("")
    with pytest.raises(GraphFormatError, match="offset"):
        wl.parse_graph6("B")  # truncated body
    with pytest.raises(GraphFormatError):
        wl.parse_graph6("~??")  # long form unsupported
    with pytest.raises(GraphFormatError, match="offset"):
        wl.parse_graph6("A" + chr(30))  # byte below printable range
    with pytest.raises(GraphFormatError):
        wl.parse_graph6("A" + chr(63 + 16))  # nonzero padding bit
    err = None
    try:
        wl.parse_graph6("Bww")
    except GraphFormatError as exc:
        err = exc
    assert err is not None and err.offset is not None


def test_parse_graph_json():
    g = wl.parse_graph_json(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    assert g == wl.path_graph(3)
    assert wl.parse_graph_json(json.dumps({"n": 2})) == wl.empty_graph(2)
    with pytest.raises(GraphFormatError):
        wl.parse_graph_json("not json")
    with pytest.raises(GraphFormatError):
        wl.parse_graph_json(json.dumps({"edges": []}))
    with pytest.raises(GraphFormatError):
        wl.parse_graph_json(json.dumps({"n": 2, "edges": [[0, 5]]}))
    assert wl.graph_to_json(g) == {"n": 3, "edges": [[0, 1], [1, 2]]}


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_graph6_roundtrip_property(g):
    assert wl.parse_graph6(wl.emit_graph6(g)) == g


# ---------------------------------------------------------------------------
# Isomorphism types of tuples


def test_atp_examples():
    p3 = wl.path_graph(3)
    assert wl.atp(p3, (0,)) == wl.atp(p3, (2,))
    assert wl.atp(p3, (0,)) == wl.atp(p3, (1,))  # single nodes carry no structure
    assert wl.atp(p3, (0, 1)) == wl.atp(p3, (2, 1))  # both edges
    assert wl.atp(p3, (0, 2)) != wl.atp(p3, (0, 1))  # non-edge vs edge
    assert wl.atp(p3, (0, 0)) != wl.atp(p3, (0, 1))  # equality pattern differs
    assert wl.atp(p3, (0, 0)) == wl.atp(p3, (2, 2))
    k2 = wl.complete_graph(2)
    assert wl.atp(k2, (0, 1)) == wl.atp(k2, (1, 0))
    assert wl.atp(p3, (0, 1)) == wl.atp(k2, (0, 1))  # comparable across graphs
    with pytest.raises(DomainError):
        wl.atp(p3, (0, 3))


@settings(max_examples=40, deadline=None)
@given(graph_with_permutation(max_n=7), st.integers(min_value=1, max_value=3))
def test_atp_permutation_invariant(gp, arity):
    g, perm = gp
    if g.n == 0:
        return
    h = g.permuted(perm)
    rng = random.Random(11)
    for _ in range(10):
        v = tuple(rng.randrange(g.n) for _ in range(arity))
        assert wl.atp(g, v) == wl.atp(h, tuple(perm[x] for x in v))


def test_atp_code_equality_matches_naive_type():
    # Over every tuple of length 1..4 on every class with n <= 5,
    # connected or not, codes and the naive (length, equality pattern,
    # adjacent position pairs) triples must be in bijection, so two codes
    # are equal exactly when the types are, within a graph and across.
    def naive(g, v):
        pairs = itertools.combinations(range(len(v)), 2)
        return len(v), tuple(v.index(x) for x in v), frozenset(
            (i, j) for i, j in pairs if g.has_edge(v[i], v[j])
        )

    code_of, type_of = {}, {}
    for g in wl.enumerate_connected_graphs(5, connected_only=False):
        for length in range(1, 5):
            for v in itertools.product(range(g.n), repeat=length):
                code, ref = wl.atp(g, v), naive(g, v)
                assert code_of.setdefault(ref, code) == code
                assert type_of.setdefault(code, ref) == ref
    # Every type occurs: per equality pattern, any labelled graph on its
    # blocks, so 1 + 3 + 15 + 127 types of length 1, 2, 3, 4.
    assert len(code_of) == len(type_of) == 146


# ---------------------------------------------------------------------------
# Components and distances


def test_components_avoiding():
    p4 = wl.path_graph(4)
    assert component_masks(p4.adj_masks, node_mask(())) == [node_mask({0, 1, 2, 3})]
    assert component_masks(p4.adj_masks, node_mask((1,))) == [node_mask({0}), node_mask({2, 3})]
    assert component_masks(p4.adj_masks, node_mask((0, 1, 2, 3))) == []
    assert component_masks(wl.empty_graph(0).adj_masks, node_mask(())) == []
    two = wl.disjoint_union(wl.complete_graph(2), wl.complete_graph(2))
    assert component_masks(two.adj_masks, node_mask(())) == [node_mask({0, 1}), node_mask({2, 3})]


def test_distance_table():
    p4 = wl.path_graph(4)
    dist = wl.distance_table(p4)
    assert dist[0][3] == 3 and dist[0][0] == 0 and dist[1][2] == 1
    two = wl.disjoint_union(wl.complete_graph(2), wl.complete_graph(2))
    assert wl.distance_table(two)[0][3] == wl.INFINITY
    assert wl.distance_table(two)[0][3] >= 2**30


def test_distance_table_matches_networkx(classes6):
    rng = random.Random(5)
    unions = [wl.disjoint_union(*rng.sample(classes6, rng.randint(2, 3))) for _ in range(40)]
    for g in [wl.empty_graph(0), wl.empty_graph(3), *classes6, *unions]:
        lengths = dict(nx.shortest_path_length(to_nx(g)))
        dist = wl.distance_table(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u][v] == lengths[u].get(v, wl.INFINITY), (g, u, v)


# ---------------------------------------------------------------------------
# Homomorphism counting


def test_hom_count_identities(c6, two_c3):
    k3 = wl.complete_graph(3)
    assert wl.hom_count(wl.empty_graph(1), c6) == 6
    assert wl.hom_count(wl.complete_graph(2), c6) == 12  # 2 * edge count
    assert wl.hom_count(wl.path_graph(3), k3) == 12
    assert wl.hom_count(k3, c6) == 0
    assert wl.hom_count(k3, two_c3) == 12
    assert wl.hom_count(c6, k3) == 66  # closed 6-walks in K3: 2^6 + 2
    assert wl.hom_count(wl.empty_graph(0), c6) == 1  # the empty map
    assert wl.hom_count(k3, wl.empty_graph(0)) == 0


def test_hom_count_matches_generator():
    rng = random.Random(3)
    for _ in range(25):
        pattern = random_graph(rng, rng.randint(1, 4))
        target = random_graph(rng, rng.randint(0, 4))
        homs = list(wl.homomorphisms(pattern, target))
        assert wl.hom_count(pattern, target) == len(homs)
        assert homs == sorted(homs)
        for img in homs:
            assert all(target.has_edge(img[u], img[v]) for u, v in pattern.edge_set)


def test_trace_oracle_closed_walks():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        a = np.zeros((g.n, g.n), dtype=np.int64)
        for u, v in g.edge_set:
            a[u, v] = a[v, u] = 1
        for k in range(3, 7):
            expected = int(np.trace(np.linalg.matrix_power(a, k)))
            assert wl.hom_count(wl.cycle_graph(k), g) == expected


def test_rooted_hom_count():
    p3, k3 = wl.path_graph(3), wl.complete_graph(3)
    assert wl.rooted_hom_count(p3, {1: 0}, k3) == 4  # middle pinned: 2 * 2
    assert wl.rooted_hom_count(p3, {}, k3) == wl.hom_count(p3, k3)
    # pins must respect pattern edges between pinned nodes
    assert wl.rooted_hom_count(k3, {0: 0, 1: 0}, k3) == 0
    assert wl.rooted_hom_count(k3, {0: 0, 1: 1}, k3) == 1
    with pytest.raises(DomainError):
        wl.rooted_hom_count(p3, {5: 0}, k3)
    with pytest.raises(DomainError):
        wl.rooted_hom_count(p3, {0: 9}, k3)


def test_rooted_sums_telescope():
    rng = random.Random(9)
    for _ in range(15):
        pattern = random_graph(rng, rng.randint(1, 4))
        target = random_graph(rng, rng.randint(1, 5))
        total = wl.hom_count(pattern, target)
        assert total == sum(
            wl.rooted_hom_count(pattern, {0: w}, target) for w in range(target.n)
        )


def test_enumeration_checks_the_deadline():
    with deadline(1, time.perf_counter() - 1.0), pytest.raises(BudgetError, match="time limit"):
        list(wl.enumerate_connected_graphs(7))


def test_hom_count_deadline_is_checked_inside_the_count():
    # P9 into K7 is 7 * 6**8 maps (about 5 s uncapped), spread over only
    # seven images of the first pattern node: a check per first-node
    # image would let a 1 ms limit run about a second over.
    pattern, target = wl.parse_graph6("HhCGGC@"), wl.parse_graph6("F~~~w")
    assert (wl.path_graph(9), wl.complete_graph(7)) == (pattern, target)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="time limit"):
        with deadline(1, start):
            wl.hom_count(pattern, target)
    assert time.perf_counter() - start < 0.3


@st.composite
def pinned_hom_instances(draw):
    pattern = draw(graphs(max_n=5))
    target = draw(graphs(max_n=5))
    pins = {}
    if pattern.n and target.n:
        keys = draw(st.lists(st.integers(0, pattern.n - 1), unique=True, max_size=2))
        pins = {u: draw(st.integers(0, target.n - 1)) for u in keys}
    return pattern, pins, target


@settings(max_examples=200, deadline=None)
@given(pinned_hom_instances())
def test_rooted_hom_count_matches_filtered_maps(instance):
    # Patterns may be disconnected, so pins can fall in any component.
    pattern, pins, target = instance
    agreeing = [
        img for img in wl.homomorphisms(pattern, target)
        if all(img[u] == v for u, v in pins.items())
    ]
    assert wl.rooted_hom_count(pattern, pins, target) == len(agreeing)


@settings(max_examples=30, deadline=None)
@given(graph_with_permutation(max_n=5))
def test_hom_count_is_isomorphism_invariant(gp):
    target, perm = gp
    pattern = wl.path_graph(3)
    assert wl.hom_count(pattern, target) == wl.hom_count(pattern, target.permuted(perm))


# ---------------------------------------------------------------------------
# Canonical forms


def test_canonical_form_identifies_iso_classes():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert wl.canonical_form(g) == wl.canonical_form(g.permuted(perm))
        # the canonical line encodes an isomorphic graph
        rep = wl.parse_graph6(wl.canonical_form(g).decode("ascii"))
        assert nx.is_isomorphic(to_nx(rep), to_nx(g))


def test_canonical_form_separates_non_iso(classes5):
    keys = [wl.canonical_form(g) for g in classes5]
    assert len(set(keys)) == len(keys)
    for a, b in random.Random(1).sample(list(itertools.combinations(range(len(classes5)), 2)), 60):
        assert not nx.is_isomorphic(to_nx(classes5[a]), to_nx(classes5[b]))


def test_canonical_form_budget():
    with pytest.raises(wl.BudgetError):
        wl.canonical_form(wl.empty_graph(17))


# ---------------------------------------------------------------------------
# Enumeration of isomorphism classes


def orbit_class_reps(n: int, connected_only: bool) -> list[wl.Graph]:
    """Brute-force: orbits of labeled edge masks under node permutations."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    seen = bytearray(1 << len(pairs))
    reps = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = wl.Graph(n, edges)
        if connected_only and len(component_masks(g.adj_masks, 0)) != 1:
            continue
        reps.append(g)
        for perm in perms:
            m2 = 0
            for a, b in edges:
                x, y = perm[a], perm[b]
                m2 |= 1 << index[(x, y) if x < y else (y, x)]
            seen[m2] = 1
    return reps


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_enumeration_matches_orbit_oracle(n, count):
    mine = [g for g in wl.enumerate_connected_graphs(n) if g.n == n]
    oracle = orbit_class_reps(n, connected_only=True)
    assert len(mine) == len(oracle) == count
    assert {wl.canonical_form(g) for g in mine} == {wl.canonical_form(g) for g in oracle}


def test_enumeration_n6_count(classes6):
    by_n = {}
    for g in classes6:
        by_n.setdefault(g.n, []).append(g)
    assert [len(by_n[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    assert len(classes6) == 143
    # representatives are canonically labeled and pairwise distinct
    keys = [wl.canonical_form(g) for g in classes6]
    assert len(set(keys)) == 143
    assert all(wl.emit_graph6(g) == key.decode("ascii") for g, key in zip(classes6, keys))
    assert all(len(component_masks(g.adj_masks, 0)) == 1 for g in classes6)


def test_enumeration_orbit_oracle_n6():
    assert len(orbit_class_reps(6, connected_only=True)) == 112


def test_enumeration_all_graphs_flag():
    all4 = [g for g in wl.enumerate_connected_graphs(4, connected_only=False) if g.n == 4]
    assert len(all4) == 11
    oracle = orbit_class_reps(4, connected_only=False)
    assert {wl.canonical_form(g) for g in all4} == {wl.canonical_form(g) for g in oracle}


def test_enumeration_budget():
    with pytest.raises(wl.BudgetError):
        list(wl.enumerate_connected_graphs(9))


def enumerate_every_candidate(n_max: int, connected_only: bool) -> list[str]:
    """The enumeration loop that canonicalizes every candidate, with no
    least-key filter: graph6 lines in (node count, canonical form)
    order."""
    previous = [wl.Graph(0)]
    lines = []
    for n in range(1, n_max + 1):
        new = n - 1
        low = 1 if connected_only and new else 0
        classes = set()
        for base in previous:
            for bits in range(low, 1 << new):
                masks = [row | (bits >> w & 1) << new for w, row in enumerate(base.adj_masks)]
                masks.append(bits)
                classes.add(_canonical_bits(masks))
        level = [_graph6_text(n, bits) for bits in sorted(classes)]
        previous = [wl.parse_graph6(line) for line in level]
        lines += level
    return lines


@pytest.mark.parametrize(
    "n_max,connected_only",
    [
        (7, True),
        (6, False),
        pytest.param(7, False, marks=pytest.mark.slow),
    ],
)
def test_least_key_filter_matches_every_candidate(n_max, connected_only):
    mine = [wl.emit_graph6(g) for g in wl.enumerate_connected_graphs(n_max, connected_only=connected_only)]
    assert mine == enumerate_every_candidate(n_max, connected_only)


def test_least_key_filter_skips_cut_nodes():
    # Two K4s joined through node 0, whose key (2, [4, 4]) is the least
    # but which is a cut node; the new node 8 is a degree-3 K4 node.
    edges = [(0, 1), (0, 5)]
    edges += [(a, b) for side in ((1, 2, 3, 4), (5, 6, 7, 8)) for a, b in itertools.combinations(side, 2)]
    adj = wl.Graph(9, edges).adj_masks
    assert _new_node_has_least_key(adj, connected_only=True)
    assert not _new_node_has_least_key(adj, connected_only=False)


# SHA-256 of the newline-joined graph6 lines of every connected class
# n <= 8, taken from the enumerator that canonicalized every candidate.
ENUM_N8_SHA256 = "a70ff2fe9fec55e091049a14f60b5cc117eab3ac21aebfae16482d9acb6b3b88"


@pytest.mark.slow
def test_enumeration_n8_pins():
    classes = list(wl.enumerate_connected_graphs(8))
    # OEIS A001349, connected graphs by node count
    assert [sum(g.n == n for g in classes) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    lines = "\n".join(wl.emit_graph6(g) for g in classes)
    assert hashlib.sha256(lines.encode()).hexdigest() == ENUM_N8_SHA256
    # OEIS A000088, all graphs on 7 nodes
    assert sum(g.n == 7 for g in wl.enumerate_connected_graphs(7, connected_only=False)) == 1044


@pytest.mark.slow
def test_enumeration_n7():
    sevens = [g for g in wl.enumerate_connected_graphs(7) if g.n == 7]
    assert len(sevens) == 853
    keys = {wl.canonical_form(g) for g in sevens}
    assert len(keys) == 853
    rng = random.Random(2)
    idx = list(range(853))
    for a, b in (rng.sample(idx, 2) for _ in range(150)):
        assert not nx.is_isomorphic(to_nx(sevens[a]), to_nx(sevens[b]))


# ---------------------------------------------------------------------------
# Treewidth


def elimination_treewidth(g: wl.Graph) -> int:
    """Brute force over all elimination orderings."""
    if g.n == 0:
        return -1
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        width = 0
        for v in order:
            nb = adj.pop(v)
            width = max(width, len(nb))
            if width >= best:
                break
            for a in nb:
                adj[a] |= nb - {a}
                adj[a].discard(v)
        best = min(best, width)
    return best


def test_treewidth_known_values(c6):
    assert wl.treewidth(wl.empty_graph(0)) == -1
    assert wl.treewidth(wl.empty_graph(1)) == 0
    assert wl.treewidth(wl.complete_graph(2)) == 1
    assert wl.treewidth(wl.path_graph(5)) == 1
    assert wl.treewidth(wl.star_graph(4)) == 1
    assert wl.treewidth(wl.cycle_graph(4)) == 2
    assert wl.treewidth(c6) == 2
    assert wl.treewidth(wl.complete_graph(4)) == 3
    assert wl.treewidth(wl.complete_graph(5)) == 4
    assert wl.treewidth(wl.Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])) == 2
    grid = wl.Graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                    + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)])
    assert wl.treewidth(grid) == 3
    assert wl.treewidth(wl.disjoint_union(wl.complete_graph(4), wl.path_graph(3))) == 3
    petersen = wl.Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                        + [(i, i + 5) for i in range(5)])
    assert wl.treewidth(petersen) == 4
    grid_3x4 = wl.Graph(12, [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)]
                        + [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)])
    assert wl.treewidth(grid_3x4) == 3
    assert wl.treewidth(wl.complete_graph(12)) == 11
    assert wl.treewidth(wl.cycle_graph(12)) == 2
    assert wl.treewidth(wl.empty_graph(12)) == 0


def bfs_treewidth(g: wl.Graph) -> int:
    """The DP as it stood before the subset-neighbourhood table: ``q`` by
    a per-node BFS with a ``seen`` mask.  A reference for the table path."""
    n = g.n
    if n == 0:
        return -1

    adj_mask = g.adj_masks

    def q(s_mask: int, v: int) -> int:
        reach = 0
        frontier = adj_mask[v]
        seen = 1 << v
        while frontier:
            u = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            if seen >> u & 1:
                continue
            seen |= 1 << u
            if s_mask >> u & 1:
                frontier |= adj_mask[u] & ~seen
            else:
                reach += 1
        return reach

    full = (1 << n) - 1
    opt = [0] * (full + 1)
    opt[0] = -1
    for s_mask in range(1, full + 1):
        best = n
        rest = s_mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            prev = s_mask & ~(1 << v)
            width = max(opt[prev], q(prev, v))
            if width < best:
                best = width
        opt[s_mask] = best
    return opt[full]


def test_treewidth_matches_bfs_dp():
    rng = random.Random(23)
    cases = [random_graph(rng, n, p) for n in (8, 9, 10) for p in (0.15, 0.3, 0.5, 0.8)]
    cases += [random_graph(rng, n, p) for n, p in ((11, 0.25), (11, 0.6), (12, 0.2), (12, 0.45), (12, 0.7))]
    cases.append(wl.disjoint_union(random_graph(rng, 5, 0.7), random_graph(rng, 6, 0.5)))
    assert any(len(component_masks(g.adj_masks, 0)) > 1 for g in cases)
    for g in cases:
        assert wl.treewidth(g) == bfs_treewidth(g), wl.emit_graph6(g)


def test_treewidth_matches_elimination_oracle(classes5):
    for g in classes5:
        assert wl.treewidth(g) == elimination_treewidth(g)


def test_treewidth_oracle_sample_n6(classes6):
    rng = random.Random(17)
    for g in rng.sample([g for g in classes6 if g.n == 6], 12):
        assert wl.treewidth(g) == elimination_treewidth(g)


def test_treewidth_budget():
    with pytest.raises(wl.BudgetError):
        wl.treewidth(wl.empty_graph(13))
