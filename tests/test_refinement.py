"""Color refinement engine: replacement enumeration, staged aggregation,
stabilization, joint runs, and spec validation.

The independent route for the k=1 instance is a classic node-color
refinement (joint over a disjoint union) implemented here from scratch.
"""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wlpower as wl
from wlpower.errors import ClosureError, ConfigurationError
from wlpower.graphs import component_masks
from wlpower.refinement import ColorDictionary, _Context, _stage_groups, _TupleTable
from wlpower.selectors import f_set, r_set
from test_golden import UNEVEN_SPECS


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> wl.Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return wl.Graph(n, edges)


def random_connected(rng: random.Random, n: int) -> wl.Graph:
    while True:
        g = random_graph(rng, n, 0.5)
        if n == 0 or len(component_masks(g.adj_masks, 0)) == 1:
            return g


# ---------------------------------------------------------------------------
# Classic node-color refinement, used as the k=1 oracle


def one_wl_distinguishes(g: wl.Graph, h: wl.Graph) -> bool:
    """Joint node-color refinement over the disjoint union; the graphs
    are distinguished iff their stable color histograms differ."""
    union = wl.disjoint_union(g, h)
    colors = {v: 0 for v in range(union.n)}
    while True:
        keys = {
            v: (colors[v], tuple(sorted(colors[w] for w in union.neighbors(v))))
            for v in range(union.n)
        }
        palette: dict = {}
        new = {v: palette.setdefault(keys[v], len(palette)) for v in range(union.n)}
        if new == colors:
            break
        colors = new
    left = Counter(colors[v] for v in range(g.n))
    right = Counter(colors[v] for v in range(g.n, union.n))
    return left != right


# ---------------------------------------------------------------------------
# Replacement enumeration and projections


def test_replacements_k2_t1():
    assert wl.replacements((7, 8), (9,)) == [(7, 8), (7, 9), (8, 9)]


def test_replacements_k1_t1():
    assert wl.replacements((4,), (5,)) == [(4,), (5,)]


def test_replacements_k2_t2():
    out = wl.replacements((0, 1), (2, 3))
    assert len(out) == 6
    assert out[0] == (0, 1) and out[-1] == (2, 3)
    assert out == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# ---------------------------------------------------------------------------
# Spec construction


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        wl.GfwlSpec(0, 1, (0,), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_nodes"))
    with pytest.raises(ConfigurationError):
        wl.GfwlSpec(2, 1, (0, 1), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_nodes"))
    with pytest.raises(ConfigurationError):
        wl.GfwlSpec(2, 1, (1, 2), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_nodes"))
    with pytest.raises(ConfigurationError):
        wl.GfwlSpec(2, 1, (0, 2, 2), (0, 1), wl.RSelector("all_k_tuples"), wl.FSelector("all_nodes"))
    with pytest.raises(ConfigurationError):
        # selector arity mismatch: distance restriction needs k == 2
        wl.GfwlSpec(1, 1, (0, 1), (0, 1),
                    wl.RSelector("distance_restricted", delta=1), wl.FSelector("all_nodes"))


def test_spec_presets():
    two = wl.fwl_spec(2)
    assert two.k == 2 and two.t == 1 and two.i_seq == (0, 2) and two.j_seq == (0, 1)
    assert len(wl.replacements(range(two.k), range(two.t))) == 3
    local = wl.local_fwl_spec(1)
    assert local.f_selector.kind == "local_neighbor_union"
    dr = wl.drfwl2_spec(2)
    assert dr.r_selector.delta == 2 and dr.f_selector.delta == 2
    plus = wl.fwl_plus_spec(2, 2)
    assert plus.i_seq == (0, 1, 2) and plus.j_seq == (0, 1, 2)
    assert plus.n_stages == 2 and plus.m_stages == 2
    assert set(wl.BUILTIN_SPECS) == {"local_1fwl", "2fwl", "local_2fwl", "drfwl2_1"}


def test_spec_json_round_trip():
    for spec in wl.BUILTIN_SPECS.values():
        assert wl.GfwlSpec.from_json_dict(spec.to_json_dict()) == spec
    with pytest.raises(ConfigurationError):
        wl.GfwlSpec.from_json_dict({"k": 2, "t": 1})


# ---------------------------------------------------------------------------
# Initial colors


def context(spec: wl.GfwlSpec, g: wl.Graph, dic: ColorDictionary | None = None) -> _Context:
    return _Context(_TupleTable(spec, g), ColorDictionary() if dic is None else dic)


def initial_colors(spec: wl.GfwlSpec, g: wl.Graph, dic: ColorDictionary | None = None) -> dict:
    return context(spec, g, dic).initial_colors()


def test_init_colors_k2():
    spec = wl.fwl_spec(2)
    colors = initial_colors(spec, wl.complete_graph(2))
    assert len(colors) == 4
    assert len(set(colors.values())) == 2
    assert colors[(0, 1)] == colors[(1, 0)]
    assert colors[(0, 0)] == colors[(1, 1)]

    colors = initial_colors(spec, wl.empty_graph(3))
    assert len(set(colors.values())) == 2

    colors = initial_colors(spec, wl.empty_graph(0))
    assert colors == {}


def test_init_colors_match_atp(classes4):
    spec = wl.fwl_spec(2)
    for g in classes4:
        colors = initial_colors(spec, g)
        tuples = sorted(colors)
        for v1, v2 in itertools.combinations(tuples, 2):
            same_color = colors[v1] == colors[v2]
            assert same_color == (wl.atp(g, v1) == wl.atp(g, v2))


def test_init_colors_shared_dictionary():
    spec = wl.fwl_spec(2)
    dic = ColorDictionary()
    a = initial_colors(spec, wl.complete_graph(2), dic)
    b = initial_colors(spec, wl.complete_graph(2).permuted([1, 0]), dic)
    assert set(a.values()) == set(b.values())


# ---------------------------------------------------------------------------
# Refinement steps and stabilization


def test_refine_step_constant_on_vertex_transitive(c6):
    ctx = context(wl.local_fwl_spec(1), c6)
    colors = ctx.initial_colors()
    assert len(set(colors.values())) == 1
    stepped = ctx.step(colors)
    assert len(set(stepped.values())) == 1


def test_refine_step_splits_by_degree():
    # one update step separates K3 from P3 tuple-histogram-wise
    spec = wl.local_fwl_spec(1)
    dic = ColorDictionary()
    k3, p3 = context(spec, wl.complete_graph(3), dic), context(spec, wl.path_graph(3), dic)
    a = k3.step(k3.initial_colors())
    b = p3.step(p3.initial_colors())
    assert Counter(a.values()) != Counter(b.values())


def test_stabilize_single_node():
    result = wl.stabilize(wl.local_fwl_spec(1), wl.empty_graph(1))
    assert result.iterations <= 1
    assert len(result.stable_colors) == 1


def test_stabilize_c6_2fwl(c6):
    result = wl.stabilize(wl.fwl_spec(2), c6)
    classes = len(set(result.stable_colors.values()))
    assert classes == 4  # tuple classes on a 6-cycle: distances 0..3
    assert result.iterations <= 37


def test_stabilize_iteration_bound(classes5):
    spec = wl.local_fwl_spec(1)
    for g in classes5:
        result = wl.stabilize(spec, g)
        assert result.iterations <= g.n + 1


def test_stabilize_fixpoint_idempotent(c6):
    spec = wl.fwl_spec(2)
    result = wl.stabilize(spec, c6)
    stepped = context(spec, c6).step(result.stable_colors)

    def signature(colors):
        seen = {}
        return tuple(seen.setdefault(colors[v], len(seen)) for v in sorted(colors))

    assert signature(stepped) == signature(result.stable_colors)


def test_stabilize_deterministic(c6):
    a = wl.stabilize(wl.fwl_spec(2), c6)
    b = wl.stabilize(wl.fwl_spec(2), c6)
    assert a.stable_colors == b.stable_colors
    assert a.graph_color == b.graph_color and a.iterations == b.iterations


def test_refinement_is_monotone():
    # successive partitions only split, never merge (connected inputs)
    rng = random.Random(31)
    spec = wl.fwl_spec(2)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 5))
        ctx = context(spec, g)
        prev = ctx.initial_colors()
        for _ in range(6):
            cur = ctx.step(prev)
            owners: dict = {}
            for v, new_color in cur.items():
                owners.setdefault(new_color, set()).add(prev[v])
            assert all(len(sources) == 1 for sources in owners.values())
            prev = cur


def test_empty_universe_graph_color():
    result = wl.stabilize(wl.fwl_spec(2), wl.empty_graph(0))
    assert result.stable_colors == {}
    assert isinstance(result.graph_color, int)
    assert not wl.distinguish(wl.fwl_spec(2), wl.empty_graph(0), wl.empty_graph(0))


# ---------------------------------------------------------------------------
# Joint runs and distinguishing


def test_distinguish_known_pairs(c6, two_c3):
    assert not wl.distinguish(wl.local_fwl_spec(1), c6, two_c3)
    assert wl.distinguish(wl.fwl_spec(2), c6, two_c3)
    assert wl.distinguish(wl.BUILTIN_SPECS["drfwl2_1"], c6, two_c3)
    assert wl.distinguish(wl.BUILTIN_SPECS["local_2fwl"], c6, two_c3)


def test_distinguish_permuted_copies():
    rng = random.Random(37)
    for spec in wl.BUILTIN_SPECS.values():
        for _ in range(5):
            g = random_graph(rng, rng.randint(1, 5))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert not wl.distinguish(spec, g, g.permuted(perm))


def test_joint_colors_equal_iff_undistinguished(c6, two_c3):
    cg, ch = wl.joint_graph_colors(wl.local_fwl_spec(1), c6, two_c3)
    assert cg == ch
    cg, ch = wl.joint_graph_colors(wl.fwl_spec(2), c6, two_c3)
    assert cg != ch


@st.composite
def graph_lists(draw):
    """Two to six graphs with zero to six nodes each; some are relabeled
    copies of earlier ones, so undistinguished pairs are common."""
    out = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        if out and draw(st.booleans()):
            g = draw(st.sampled_from(out))
            out.append(g.permuted(list(draw(st.permutations(range(g.n))))))
            continue
        n = draw(st.integers(min_value=0, max_value=6))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        out.append(wl.Graph(n, edges))
    return out


# The specs of the differential tests below, each with the largest node
# count it runs on: the built-in ones, and the staged ones whose pooling
# or update folds are nested (their universes grow fastest).
DIFFERENTIAL_SPECS = [
    *((name, spec, 6) for name, spec in wl.BUILTIN_SPECS.items()),
    *((name, spec, 4) for name, spec in UNEVEN_SPECS.items()),
    ("fwl_plus_2_2", wl.fwl_plus_spec(2, 2), 4),
]


# Two trees with degree sequence 3,2,2,1,1,1 that classic refinement
# separates only in its second round.
TREES = [
    wl.Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]),
    wl.Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]),
]


@settings(max_examples=40, deadline=None)
@given(graph_lists())
@example([*TREES, wl.empty_graph(0), wl.empty_graph(2), wl.complete_graph(2)])
def test_joint_colors_match_pairwise_distinguish(graphs):
    # One joint run over the whole list against a fresh pairwise run per
    # pair: the batch stops only when every graph is stable, and a pair
    # stops at its first separating round, which must not change any
    # pair's verdict.
    for name, spec, n_max in DIFFERENTIAL_SPECS:
        batch = [g for g in graphs if g.n <= n_max]
        colors = wl.joint_graph_colors(spec, *batch)
        assert len(colors) == len(batch)
        for (i, g), (j, h) in itertools.combinations(enumerate(batch), 2):
            assert (colors[i] == colors[j]) == (not wl.distinguish(spec, g, h)), name


def assert_distinguish_matches_joint_colors(classes, specs=wl.BUILTIN_SPECS):
    # Every pair with repetition of ``classes``, the second graph
    # relabeled, under each spec of ``specs``: the early-stopping
    # pairwise verdict against one joint run to stability.
    rng = random.Random(len(classes))
    relabeled = [h.permuted(rng.sample(range(h.n), h.n)) for h in classes]
    for name, spec in specs.items():
        colors = wl.joint_graph_colors(spec, *classes)
        for i, j in itertools.combinations_with_replacement(range(len(classes)), 2):
            expected = colors[i] != colors[j]
            assert wl.distinguish(spec, classes[i], relabeled[j]) == expected, (name, i, j)


def test_distinguish_matches_joint_colors_exhaustive(classes5):
    assert_distinguish_matches_joint_colors(classes5)


def test_distinguish_matches_joint_colors_exhaustive_staged(classes4):
    # The multi-stage folds: fwl_plus_2_2 and both uneven schedules.
    assert_distinguish_matches_joint_colors(classes4, {"fwl_plus_2_2": wl.fwl_plus_spec(2, 2), **UNEVEN_SPECS})


@pytest.mark.slow
def test_distinguish_matches_joint_colors_exhaustive_n6(classes6):
    assert_distinguish_matches_joint_colors(classes6)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so that every call appends its arguments to
    the returned list."""
    calls, real = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_distinguish_stops_at_round_0(monkeypatch):
    # Under fwl_k every tuple aggregates over all nodes, so graphs with
    # different edge counts differ in their type codes: the tables alone
    # decide, and no refinement row is built.
    built = count_calls(monkeypatch, wl.refinement, "_Context")
    assert wl.distinguish(wl.PRESET_SPECS["fwl_k"], wl.path_graph(4), wl.cycle_graph(4))
    assert built == []
    assert not wl.distinguish(wl.PRESET_SPECS["fwl_k"], wl.cycle_graph(4), wl.cycle_graph(4))
    assert len(built) == 2


def test_distinguish_decides_at_round_1_without_rows(monkeypatch):
    # P4 and the star on 4 nodes have equal type codes under fwl_k (4
    # nodes, 3 edges), so round 0 passes; their round-1 signatures hold
    # the degrees, which differ, so no refinement row is built.
    signed = count_calls(monkeypatch, wl.refinement, "_round_1_signatures")
    built = count_calls(monkeypatch, wl.refinement, "_Context")
    assert wl.distinguish(wl.PRESET_SPECS["fwl_k"], wl.path_graph(4), wl.star_graph(3))
    assert len(signed) == 2 and built == []


def test_distinguish_skips_round_0_with_empty_aggregation_sets(monkeypatch):
    # Under local_2fwl no tuple of two isolated nodes has a neighbour to
    # aggregate over: all its tuples get one color at round 1, whatever
    # their types, so round 0 proves nothing and the run goes on to
    # round 1, whose signatures decide the pair without a row.
    signed = count_calls(monkeypatch, wl.refinement, "_round_1_signatures")
    built = count_calls(monkeypatch, wl.refinement, "_Context")
    assert wl.distinguish(wl.BUILTIN_SPECS["local_2fwl"], wl.empty_graph(2), wl.complete_graph(2))
    assert len(signed) == 2 and built == []


def test_distinguish_stops_at_the_separating_round(monkeypatch):
    # Classic refinement separates the two trees in its second round;
    # their joint run takes longer to become stable.
    t1, t2 = TREES
    spec = wl.local_fwl_spec(1)
    steps = count_calls(monkeypatch, _Context, "step")
    assert wl.distinguish(spec, t1, t2)
    assert len(steps) == 2 * 2
    steps.clear()
    wl.joint_graph_colors(spec, t1, t2)
    assert len(steps) > 2 * 2


def test_joint_colors_wait_for_the_slowest_graph(c6, two_c3):
    # The two trees, batched after a graph that is stable after one round.
    t1, t2 = TREES
    graphs = [wl.Graph(1, []), t1, t2, c6, two_c3]
    for name, spec in wl.BUILTIN_SPECS.items():
        colors = wl.joint_graph_colors(spec, *graphs)
        for i, j in itertools.combinations(range(len(graphs)), 2):
            expected = not wl.distinguish(spec, graphs[i], graphs[j])
            assert (colors[i] == colors[j]) == expected, (name, i, j)
    colors = wl.joint_graph_colors(wl.local_fwl_spec(1), *graphs)
    assert colors[1] != colors[2] and colors[3] == colors[4]


def test_joint_colors_single_graph(c6):
    (color,) = wl.joint_graph_colors(wl.fwl_spec(2), c6)
    assert color == wl.stabilize(wl.fwl_spec(2), c6).graph_color


def test_graph_independent_f_set_built_once(monkeypatch, c6):
    # Under all_nodes and all_t_tuples every colored tuple aggregates over
    # one set: the table calls f_set once and every colored tuple shares
    # its list and its stage groups, equal to a per-tuple build.
    calls = count_calls(monkeypatch, wl.refinement, "f_set")
    for spec in (wl.fwl_spec(2), wl.fwl_plus_spec(2, 2), *UNEVEN_SPECS.values()):
        calls.clear()
        table = _TupleTable(spec, c6)
        assert len(calls) == 1
        assert len({id(table.fsets[v]) for v in table.rset}) == len({id(table.stages[v]) for v in table.rset}) == 1
        for v in table.rset:
            assert table.fsets[v] == sorted(f_set(spec.f_selector, spec.t, c6, v))
            assert table.stages[v] == _stage_groups(table.fsets[v], spec.j_seq)


def test_distinguish_different_sizes():
    assert wl.distinguish(wl.local_fwl_spec(1), wl.path_graph(3), wl.path_graph(4))


def test_local_1fwl_equals_classic_refinement_exhaustive(classes5):
    spec = wl.local_fwl_spec(1)
    for g, h in itertools.combinations(classes5, 2):
        assert wl.distinguish(spec, g, h) == one_wl_distinguishes(g, h)


def test_local_1fwl_equals_classic_refinement_disconnected(c6, two_c3):
    spec = wl.local_fwl_spec(1)
    rng = random.Random(41)
    assert one_wl_distinguishes(c6, two_c3) is False
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        assert wl.distinguish(spec, g, h) == one_wl_distinguishes(g, h)


@pytest.mark.slow
def test_local_1fwl_equals_classic_refinement_n6(classes6):
    spec = wl.local_fwl_spec(1)
    for g, h in itertools.combinations(classes6, 2):
        assert wl.distinguish(spec, g, h) == one_wl_distinguishes(g, h)


def test_fwl_plus_smoke(c6, two_c3):
    spec = wl.fwl_plus_spec(2, 2)
    assert wl.distinguish(spec, c6, two_c3)
    assert not wl.distinguish(spec, c6, wl.cycle_graph(6).permuted([3, 4, 5, 0, 1, 2]))
    result = wl.stabilize(spec, wl.path_graph(4))
    assert result.iterations <= 17


# ---------------------------------------------------------------------------
# Spec validation on graphs


def test_validate_spec_builtins(classes4):
    for spec in wl.BUILTIN_SPECS.values():
        for g in classes4:
            assert wl.validate_spec(spec, g).passed


def test_validate_spec_drfwl_on_c6(c6):
    assert wl.validate_spec(wl.drfwl2_spec(1), c6).passed


def test_validate_spec_closure_violation():
    # distance-restricted universe with unrestricted aggregation leaks
    bad = wl.GfwlSpec(
        2, 1, (0, 2), (0, 1),
        wl.RSelector("distance_restricted", delta=1),
        wl.FSelector("all_nodes"),
    )
    report = wl.validate_spec(bad, wl.path_graph(3))
    assert not report.passed
    assert report.closure_violations
    first = report.closure_violations[0]
    assert {"v", "u", "choice", "replacement"} <= set(first)
    with pytest.raises(ClosureError):
        wl.stabilize(bad, wl.path_graph(3))


def test_validate_spec_structure_issues():
    report = wl.validate_spec({"k": 2, "t": 1}, wl.path_graph(3))
    assert not report.passed
    assert report.structure_issues
    report = wl.validate_spec(
        {"k": 2, "t": 1, "i_seq": [0, 1], "j_seq": [0, 1],
         "r": {"kind": "all_k_tuples"}, "f": {"kind": "all_nodes"}},
        wl.path_graph(3),
    )
    assert report.structure_issues  # i_seq must end at k


@pytest.mark.parametrize(
    "field",
    [
        {"k": "2"},
        {"r": "all_k_tuples"},
        {"i_seq": 2},
        {"r": {"kind": "distance_restricted", "delta": "1"}},
    ],
    ids=["k-string", "r-string", "i_seq-integer", "delta-string"],
)
def test_validate_spec_reports_mistyped_fields(field):
    report = wl.validate_spec({**wl.fwl_spec(2).to_json_dict(), **field}, wl.path_graph(3))
    assert report.structure_issues and not report.closure_violations


@pytest.mark.parametrize(
    "spec, field",
    [
        (wl.fwl_spec(1), {"k": True}),
        (wl.fwl_spec(1), {"i_seq": [0, True]}),
        (wl.fwl_spec(1), {"t": True}),
        (wl.fwl_spec(2), {"j_seq": [0, True]}),
        (wl.drfwl2_spec(1), {"r": {"kind": "distance_restricted", "delta": True}}),
        (wl.drfwl2_spec(1), {"f": {"kind": "delta_ball_intersection", "delta": True}}),
    ],
    ids=["k-true", "i_seq-true-entry", "t-true", "j_seq-true-entry", "r-delta-true", "f-delta-true"],
)
def test_validate_spec_rejects_booleans(spec, field):
    # JSON ``true`` is no integer, though Python's ``bool`` is an ``int``
    report = wl.validate_spec({**spec.to_json_dict(), **field}, wl.path_graph(3))
    assert report.structure_issues and not report.closure_violations


# Every selector pairing that constructs at k = 2, t = 1 with delta in {1, 2}.
K2_T1_SPECS = [
    wl.GfwlSpec(2, 1, (0, 2), (0, 1), r, f)
    for r in (wl.RSelector("all_k_tuples"), *(wl.RSelector("distance_restricted", d) for d in (1, 2)))
    for f in (
        wl.FSelector("all_t_tuples"),
        wl.FSelector("all_nodes"),
        wl.FSelector("local_neighbor_union"),
        *(wl.FSelector("delta_ball_intersection", d) for d in (1, 2)),
    )
]


def brute_closure_violations(spec: wl.GfwlSpec, g: wl.Graph) -> list:
    """Every replacement outside the universe, by a direct walk over the
    k-subsequences of each concatenation ``v + u``."""
    universe = r_set(spec.r_selector, spec.k, g)
    return [
        {"v": v, "u": u, "choice": c, "replacement": w}
        for v in sorted(universe)
        for u in sorted(f_set(spec.f_selector, spec.t, g, v))
        for c, w in enumerate(itertools.combinations(v + u, spec.k))
        if w not in universe
    ]


def test_closure_violations_match_brute_force(graph_classes5):
    # Specs with a full universe skip the walk; the brute force judges
    # that skip too.
    seen = Counter()
    for spec in K2_T1_SPECS:
        for g in graph_classes5:
            expected = brute_closure_violations(spec, g)
            assert wl.validate_spec(spec, g).closure_violations == expected, (spec, g)
            seen[bool(expected)] += 1
    assert seen[True] and seen[False]


def test_closure_error_exactly_when_violated(graph_classes5):
    for spec in K2_T1_SPECS:
        for g in graph_classes5:
            violated = bool(brute_closure_violations(spec, g))
            for solve in (
                lambda: wl.stabilize(spec, g),
                lambda: wl.cops_robber_wins(spec, g, want_certificate=False),
                lambda: wl.spoiler_wins(spec, g, g, want_certificate=False),
            ):
                try:
                    solve()
                except ClosureError:
                    assert violated, (spec, g)
                else:
                    assert not violated, (spec, g)


def brute_stage(tuples: list, a: int, b: int) -> dict:
    """Every length-``a`` prefix of ``tuples`` mapped to the sorted
    suffixes of its length-``b`` extensions."""
    return {
        p: sorted({tup[a:b] for tup in tuples if tup[:a] == p})
        for p in {tup[:a] for tup in tuples}
    }


def test_stage_groups_match_brute_force(graph_classes5):
    # The aggregation fold reads each stage's groups by position, so each
    # stage must also list its prefixes sorted, and its groups in order
    # must spell the next stage's prefixes (the last stage's, the tuples).
    checked = 0
    for spec in [*UNEVEN_SPECS.values(), wl.drfwl2_spec(1)]:
        for g in graph_classes5:
            table = _TupleTable(spec, g)
            lists = [((), table.rset, spec.i_seq)]
            lists += [(v, us, spec.j_seq) for v, us in table.fsets.items()]
            for main, tuples, seq in lists:
                stages = table.stages[main]
                assert len(stages) == len(seq) - 1
                for m, groups in enumerate(stages):
                    assert groups == brute_stage(tuples, seq[m], seq[m + 1]), (spec, g, main, m)
                    assert list(groups) == sorted(groups)
                    spelled = [p + s for p, suffixes in groups.items() for s in suffixes]
                    nxt = list(stages[m + 1]) if m + 1 < len(stages) else tuples
                    assert spelled == nxt, (spec, g, main, m)
                    checked += 1
    assert checked > 5_000


def sorted_prefix_stages(tuples: list, seq: tuple) -> list[dict]:
    """The stage groups by sorting each stage's set of prefixes: the
    formula that the one-stage shortcut must match."""
    groups = []
    for prev, cur in zip(seq, seq[1:]):
        stage: dict = {}
        for tup in sorted({full[:cur] for full in tuples}):
            stage.setdefault(tup[:prev], []).append(tup[prev:])
        groups.append(stage)
    return groups


@st.composite
def sorted_tuple_lists(draw):
    """A sorted, duplicate-free list of equal-length tuples: length 1 to
    4, entries 0 to 4, possibly empty."""
    length = draw(st.integers(min_value=1, max_value=4))
    entries = st.tuples(*[st.integers(min_value=0, max_value=4)] * length)
    return length, sorted(draw(st.lists(entries, unique=True, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(sorted_tuple_lists())
def test_stage_groups_match_sorted_prefixes(case):
    # The one-stage shortcut relies on sorted, duplicate-free input; under
    # every strictly increasing ``seq`` from 0 to the tuple length, the
    # dicts must match the set-and-sort formula in key order too.
    length, tuples = case
    for inner in itertools.chain.from_iterable(
        itertools.combinations(range(1, length), r) for r in range(length)
    ):
        seq = (0, *inner, length)
        expected = [list(stage.items()) for stage in sorted_prefix_stages(tuples, seq)]
        assert [list(stage.items()) for stage in _stage_groups(tuples, seq)] == expected, seq
