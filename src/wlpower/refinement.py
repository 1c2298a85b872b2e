"""Generalized folklore Weisfeiler-Leman color refinement.

An instance is configured by :class:`GfwlSpec`: arities ``k`` and ``t``,
two strictly increasing index sequences that stage the aggregations, and
the two tuple-set selectors.  Colors start as isomorphism types of the
selected k-tuples (the integer codes of :func:`~wlpower.graphs.atp`),
then repeat an update step (replacement messages from the selected
t-tuples, collapsed by nested multiset aggregations) until the induced
partition stops changing, and finally pool to one graph-level color.
One tuple table per (spec, graph) checks when built that every
replacement stays in the universe (``ClosureError``) and groups its
tuples by stage once: the aggregations fold over those groups, and both
games put from them.

All hashing goes through one shared append-only :class:`ColorDictionary`
mapping canonical content keys to fresh integers, so color identifiers
are injective by construction.  Identifiers are only comparable within
one dictionary; :func:`distinguish` therefore runs both graphs jointly
against a single dictionary, and :func:`joint_graph_colors` does the
same for any number of graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import ClosureError, ConfigurationError, check_deadline
from .graphs import Graph, atp
from .selectors import FSelector, RSelector, f_set, r_set


@lru_cache(maxsize=None)
def _index_vectors(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """All size-k index subsets of the concatenated (k+t)-tuple, in
    lexicographic order; the first picks out the original k-tuple."""
    return tuple(itertools.combinations(range(k + t), k))


@lru_cache(maxsize=None)
def _replacement_getters(k: int, t: int) -> tuple:
    """One getter per index vector of :func:`_index_vectors`, in its
    order, taking a concatenation ``v + u`` to that replacement."""
    # a one-index getter would return the entry, not a 1-tuple: slice it
    return tuple(itemgetter(*vec) if k > 1 else itemgetter(slice(*vec, vec[0] + 1))
                 for vec in _index_vectors(k, t))


def replacements(v: Sequence[int], u: Sequence[int]) -> list[tuple[int, ...]]:
    """The C = binom(k+t, k) length-k subsequences of the concatenation
    ``(v, u)``, ordered lexicographically by index vector.  The first
    entry is always ``v`` itself."""
    concat = tuple(v) + tuple(u)
    return [get(concat) for get in _replacement_getters(len(v), len(u))]


class ColorDictionary:
    """Shared injective hash: canonical content keys to fresh integers.

    Keys embed their role and aggregation depth (``("atp", code)`` with
    the integer code of :func:`~wlpower.graphs.atp`, ``("msg", ...)``,
    ``("aggr", stage, length, ...)``), so one dictionary safely serves
    every hashing site of a refinement run.  Ids follow the order in
    which keys are first seen.
    """

    def __init__(self):
        self._table: dict = {}

    def id_for(self, key) -> int:
        table = self._table
        ident = table.get(key)
        if ident is None:
            ident = len(table)
            table[key] = ident
        return ident

    def __len__(self) -> int:
        return len(self._table)


@dataclass(frozen=True)
class GfwlSpec:
    """Hyperparameters of one refinement instance.

    ``i_seq`` runs ``0 = i_0 < ... < i_N = k`` and stages the pooling
    aggregations; ``j_seq`` runs ``0 = j_0 < ... < j_M = t`` and stages
    the per-update aggregations.
    """

    k: int
    t: int
    i_seq: tuple[int, ...]
    j_seq: tuple[int, ...]
    r_selector: RSelector
    f_selector: FSelector

    def __post_init__(self):
        object.__setattr__(self, "i_seq", tuple(self.i_seq))
        object.__setattr__(self, "j_seq", tuple(self.j_seq))
        # ``type(x) is int`` also rejects JSON ``true``, which would hash
        # to a cache key of its own
        if not (type(self.k) is int and type(self.t) is int) or self.k < 1 or self.t < 1:
            raise ConfigurationError(
                f"k and t must be positive integers, got k={self.k!r}, t={self.t!r}"
            )
        _check_index_seq("i_seq", self.i_seq, self.k)
        _check_index_seq("j_seq", self.j_seq, self.t)
        self.r_selector.validate_arity(self.k)
        self.f_selector.validate_arity(self.k, self.t)

    @property
    def n_stages(self) -> int:
        return len(self.i_seq) - 1

    @property
    def m_stages(self) -> int:
        return len(self.j_seq) - 1

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "i_seq": list(self.i_seq),
            "j_seq": list(self.j_seq),
            "r": self.r_selector.to_json_dict(),
            "f": self.f_selector.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GfwlSpec":
        """The spec of a JSON object; a missing or mistyped field raises
        :class:`ConfigurationError`."""
        names = ("k", "t", "i_seq", "j_seq", "r", "f")
        try:
            k, t, i_seq, j_seq, r, f = (obj[name] for name in names)
        except KeyError as exc:
            raise ConfigurationError(f"spec file missing field {exc}") from exc
        if not all(isinstance(seq, (list, tuple)) for seq in (i_seq, j_seq)):
            raise ConfigurationError(f"i_seq and j_seq must be arrays, got {i_seq!r}, {j_seq!r}")
        if not all(isinstance(sel, dict) for sel in (r, f)):
            raise ConfigurationError(f"r and f must be objects, got {r!r}, {f!r}")
        return cls(k, t, i_seq, j_seq, RSelector.from_json_dict(r), FSelector.from_json_dict(f))


def _check_index_seq(name: str, seq: tuple[int, ...], end: int) -> None:
    if len(seq) < 2 or not all(type(x) is int for x in seq) or seq[0] != 0 or seq[-1] != end:
        raise ConfigurationError(f"{name} must be integers running from 0 to {end}, got {seq}")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing, got {seq}")


# Canonical parameterized instances.

def fwl_spec(k: int) -> GfwlSpec:
    """Full folklore WL on all k-tuples, single-stage aggregation."""
    return GfwlSpec(k, 1, (0, k), (0, 1), RSelector("all_k_tuples"), FSelector("all_nodes"))


def local_fwl_spec(k: int) -> GfwlSpec:
    """Folklore WL aggregating only over neighbors of the tuple entries."""
    return GfwlSpec(
        k, 1, (0, k), (0, 1), RSelector("all_k_tuples"), FSelector("local_neighbor_union")
    )


def drfwl2_spec(delta: int) -> GfwlSpec:
    """Distance-restricted 2-tuple refinement with radius ``delta``."""
    return GfwlSpec(
        2,
        1,
        (0, 2),
        (0, 1),
        RSelector("distance_restricted", delta),
        FSelector("delta_ball_intersection", delta),
    )


def fwl_plus_spec(k: int, t: int) -> GfwlSpec:
    """Fully staged (k,t) refinement: unit-step index sequences over all
    k-tuples and all t-tuples."""
    return GfwlSpec(
        k,
        t,
        tuple(range(k + 1)),
        tuple(range(t + 1)),
        RSelector("all_k_tuples"),
        FSelector("all_t_tuples"),
    )


# Named instances.  ``BUILTIN_SPECS`` are the specs the acceptance suites
# sweep; ``PRESET_SPECS`` are the names ``wlpower --spec NAME`` accepts.
BUILTIN_SPECS = {
    "local_1fwl": local_fwl_spec(1),
    "2fwl": fwl_spec(2),
    "local_2fwl": local_fwl_spec(2),
    "drfwl2_1": drfwl2_spec(1),
}

PRESET_SPECS = {
    "fwl_k": fwl_spec(2),
    "local_fwl_k": local_fwl_spec(2),
    "drfwl2_delta": drfwl2_spec(1),
    "fwl_plus_k_t": fwl_plus_spec(2, 2),
}


# ---------------------------------------------------------------------------
# Refinement proper


@dataclass
class RefinementResult:
    stable_colors: dict
    iterations: int
    graph_color: int


def _stage_groups(tuples: list[tuple[int, ...]], seq: tuple[int, ...]) -> list[dict]:
    """For each stage ``(seq[m], seq[m+1])``: the length-``seq[m+1]``
    prefixes of ``tuples``, in sorted order, as suffixes grouped by their
    length-``seq[m]`` prefix.  Each stage's groups, read in order, list
    the next stage's prefixes in order; the last stage's list the sorted
    tuples.  ``tuples`` must be sorted and duplicate-free, each of length
    ``seq[-1]`` (``seq`` runs from 0): then a one-stage ``seq`` groups
    the tuples themselves under the empty prefix, with no sort."""
    if len(seq) == 2:
        return [{(): list(tuples)} if tuples else {}]
    groups = []
    for prev, cur in zip(seq, seq[1:]):
        stage: dict = {}
        for tup in sorted({full[:cur] for full in tuples}):
            stage.setdefault(tup[:prev], []).append(tup[prev:])
        groups.append(stage)
    return groups


def _collapse(ids: list, stages: list, seq: tuple, kind: str, id_for) -> int:
    """Fold the nested multiset aggregations over the stage groups of
    :func:`_stage_groups`, last stage first, and return the final
    length-0 value.  ``ids`` holds one value per tuple in sorted order;
    each stage hashes the values of each group, read by position, to one
    value per group prefix (``id_for`` is the dictionary's).  An empty
    input yields the hash of the empty multiset chain."""
    for length, groups in zip(reversed(seq[:-1]), reversed(stages)):
        it = iter(ids)
        ids = [
            id_for(("aggr", kind, length, tuple(sorted(itertools.islice(it, len(suffixes))))))
            for suffixes in groups.values()
        ]
    if not ids:
        return id_for(("aggr", kind, 0, ()))
    return ids[0]


def _next_phase(spec: GfwlSpec, phase: tuple) -> tuple:
    """The phase after ``phase`` in both games' move schedule."""
    if phase[0] == "I":
        return ("I", phase[1] + 1) if phase[1] < spec.n_stages else ("U", 1)
    if phase[0] == "U":
        return ("U", phase[1] + 1) if phase[1] < spec.m_stages else ("R",)
    return ("U", 1)


# The F selector kinds that ignore the graph and the colored tuple: every
# colored tuple aggregates over one set, every t-tuple of the graph
# (``power.check_monotonicity`` reads that too).
_SHARED_F_KINDS = ("all_nodes", "all_t_tuples")


def _distinct_puts(spec: GfwlSpec, g: Graph) -> bool:
    """Whether both games on ``g`` may put on unpebbled nodes only: the
    selectors ignore the graph (``all_k_tuples`` with ``all_nodes`` or
    ``all_t_tuples``) and ``g`` has at least ``k + t`` nodes, so a put
    that repeats a node only throws a pebble away (the proof is in the
    docstring of :mod:`wlpower.games`)."""
    return (
        spec.r_selector.kind == "all_k_tuples"
        and spec.f_selector.kind in _SHARED_F_KINDS
        and g.n >= spec.k + spec.t
    )


def _deadline_checked(items: Iterable):
    """``items`` one by one, with the run deadline checked before each."""
    for item in items:
        check_deadline()
        yield item


class _TupleTable:
    """The tuple facts of one (spec, graph), built once per call: the
    sorted universe ``rset``, each colored tuple's sorted aggregation
    tuples ``fsets[v]``, the replacement ``getters``, the staged prefix
    groups, one memo of :func:`~wlpower.graphs.atp` codes and two of
    bijection-game put rows and their choice keys (:meth:`put_row`,
    :meth:`put_keys`), whose Hall rows and keys are ids of ``hall_ids``:
    the two tables of one game share that dictionary, so their ids
    compare.
    ``stages[v]`` groups ``fsets[v]`` by ``j_seq`` and ``stages[()]``
    groups the universe by ``i_seq`` (``R(G)`` is ``F(G, ())``):
    refinement folds its aggregations over them, and both games choose
    their puts from them (:meth:`put_choices`).  Refinement reads the
    table through :class:`_Context`, the games and :func:`validate_spec`
    directly.  Building it raises :class:`ClosureError` when a
    replacement leaves the universe; a universe of all ``g.n ** k``
    tuples is closed by counting, so the walk is skipped there."""

    def __init__(self, spec: GfwlSpec, g: Graph, hall_ids: ColorDictionary | None = None):
        self.spec = spec
        self.g = g
        self.hall_ids = ColorDictionary() if hall_ids is None else hall_ids
        self.rset = sorted(r_set(spec.r_selector, spec.k, g))
        if spec.f_selector.kind in _SHARED_F_KINDS and self.rset:
            # one f-set and one stage-group list serve every colored tuple
            us = sorted(f_set(spec.f_selector, spec.t, g, self.rset[0]))
            self.fsets = dict.fromkeys(_deadline_checked(self.rset), us)
            self.stages = dict.fromkeys(self.rset, _stage_groups(us, spec.j_seq))
        else:
            self.fsets = {
                v: sorted(f_set(spec.f_selector, spec.t, g, v)) for v in _deadline_checked(self.rset)
            }
            self.stages = {v: _stage_groups(us, spec.j_seq) for v, us in self.fsets.items()}
        self.stages[()] = _stage_groups(self.rset, spec.i_seq)
        self.getters = getters = _replacement_getters(spec.k, spec.t)
        self._types: dict = {}
        self._put_rows: dict = {}
        self._put_keys: dict = {}
        if len(self.rset) == g.n ** spec.k:
            return
        universe, k = set(self.rset), spec.k
        concats = [v + u for v, us in self.fsets.items() for u in us]
        # the first getter gives v itself; the rest run at C speed
        if all(universe.issuperset(map(get, concats)) for get in getters[1:]):
            return
        violations = [
            {"v": concat[:k], "u": concat[k:], "choice": c, "replacement": w}
            for concat in concats
            for c, w in enumerate([get(concat) for get in getters])
            if w not in universe
        ]
        raise ClosureError(violations)

    def type_code(self, tup: tuple) -> int:
        """``atp(g, tup)``, memoized per tuple."""
        code = self._types.get(tup)
        if code is None:
            code = self._types[tup] = atp(self.g, tup)
        return code

    def put_choices(self, phase: tuple, pos: tuple) -> list:
        """The suffixes a game may put on the occupied tuple ``pos`` in
        putting phase ``phase``: ``("I", n)`` chooses from the universe
        by ``i_seq``, ``("U", m)`` from the aggregation tuples of the
        colored tuple ``pos[:k]`` by ``j_seq``.  Closure holds once the
        table is built, so every colored tuple a game reaches is a key.
        Where :func:`_distinct_puts` licenses it, only the suffixes
        whose nodes are distinct from each other and from ``pos``: this
        is both games' one choice point, so their solvers, replays and
        Hall lookahead all play the distinct-node arena."""
        main = () if phase[0] == "I" else pos[: self.spec.k]
        choices = self.stages[main][phase[1] - 1].get(pos[len(main):], [])
        if not _distinct_puts(self.spec, self.g):
            return choices
        size = len(pos)
        return [delta for delta in choices if len({*pos, *delta}) == size + len(delta)]

    def put_row(self, phase: tuple, pos: tuple) -> tuple:
        """One side of a bijection-game putting state, built once per
        ``(phase, pos)``: the positions its choices lead to in
        :meth:`put_choices` order, their type codes and the state's Hall
        row, the id in ``hall_ids`` of the sorted codes (two sides admit
        a type-respecting bijection iff their Hall rows are equal)."""
        row = self._put_rows.get((phase, pos))
        if row is None:
            new = [pos + delta for delta in self.put_choices(phase, pos)]
            codes = list(map(self.type_code, new))
            hall = self.hall_ids.id_for(("put", *sorted(codes)))
            row = self._put_rows[(phase, pos)] = (new, codes, hall)
        return row

    def put_keys(self, phase: tuple, pos: tuple) -> tuple:
        """The choice keys of a :meth:`put_row`, built once per ``(phase,
        pos)``: per choice the id in ``hall_ids`` of its position's type
        code and the Hall row of that position in the next phase, then
        the sorted keys and each key's choice indices.  Two sides admit a
        bijection that pairs choices of equal keys only iff their sorted
        keys are equal.  A putting phase's Hall row is :meth:`put_row`'s;
        a removing phase's lists the Hall rows of the ``("U", 1)``
        positions its index selections keep, in getter order.  A key's
        content is the type code and one Hall row, or the type code and
        C >= 2 of them, and a Hall row's starts with ``"put"``, so no two
        kinds share an id."""
        row = self._put_keys.get((phase, pos))
        if row is None:
            new, codes, _ = self.put_row(phase, pos)
            nxt, id_for, put_row = _next_phase(self.spec, phase), self.hall_ids.id_for, self.put_row
            if nxt[0] == "R":
                columns = [[put_row(("U", 1), kept)[2] for kept in map(get, new)] for get in self.getters]
                keys = list(map(id_for, zip(codes, *columns)))
            else:
                keys = list(map(id_for, zip(codes, [put_row(nxt, tup)[2] for tup in new])))
            buckets: dict[int, list[int]] = {}
            for index, key in enumerate(keys):
                buckets.setdefault(key, []).append(index)
            row = self._put_keys[(phase, pos)] = (keys, sorted(keys), buckets)
        return row


class _Context:
    """A tuple table plus what every update step reads: per colored
    tuple ``v``, one row per aggregation tuple ``u`` in sorted order
    holding the dictionary id of the isomorphism type of ``v + u`` and
    the replacements of ``v`` by ``u``."""

    def __init__(self, table: _TupleTable, dictionary: ColorDictionary):
        self.table = table
        self.dictionary = dictionary
        id_for, type_code, getters = dictionary.id_for, table.type_code, table.getters
        self.rows = {
            v: [(id_for(("atp", type_code(v + u))), [get(v + u) for get in getters]) for u in us]
            for v, us in _deadline_checked(table.fsets.items())
        }

    def initial_colors(self) -> dict:
        return {v: self.dictionary.id_for(("atp", self.table.type_code(v))) for v in self.table.rset}

    def step(self, colors: dict) -> dict:
        id_for, seq, stages = self.dictionary.id_for, self.table.spec.j_seq, self.table.stages
        new = {}
        for v, rows in self.rows.items():
            msgs = [
                id_for(("msg", type_id, tuple([colors[w] for w in reps]))) for type_id, reps in rows
            ]
            new[v] = _collapse(msgs, stages[v], seq, "upd", id_for)
        return new

    def pool(self, colors: dict) -> int:
        table = self.table
        ids = [colors[v] for v in table.rset]
        return _collapse(ids, table.stages[()], table.spec.i_seq, "pool", self.dictionary.id_for)


def _partition_signature(contexts: Sequence[_Context], colors: Sequence[dict]) -> tuple:
    seen: dict = {}
    return tuple(
        seen.setdefault(cols[v], len(seen))
        for ctx, cols in zip(contexts, colors)
        for v in ctx.table.rset
    )


def _stabilize(contexts: Sequence[_Context]) -> Iterator[list[dict]]:
    """Yield each round's colorings, one per context, from round 0 on:
    every context is stepped until the partition over the union of
    their tuple universes stops changing, and the last coloring yielded
    is the stable one.  The run deadline is checked before every step."""
    colors = [ctx.initial_colors() for ctx in contexts]
    yield colors
    signature = _partition_signature(contexts, colors)
    bound = sum(len(ctx.table.rset) for ctx in contexts) + 1
    iterations = 0
    while True:
        check_deadline()
        colors = [ctx.step(cols) for ctx, cols in zip(contexts, colors)]
        iterations += 1
        yield colors
        new_signature = _partition_signature(contexts, colors)
        if new_signature == signature:
            return
        signature = new_signature
        # Partition chains on a finite universe are strictly shorter
        # than this; exceeding it means the stability check is broken.
        if iterations > bound:
            raise RuntimeError("refinement exceeded its round bound")


def stabilize(spec: GfwlSpec, g: Graph) -> RefinementResult:
    """Iterate update steps until the induced partition stops changing,
    then pool to the graph-level color.  ``stable_colors`` maps each
    tuple of the universe to its stable color; the identifiers come from
    a fresh dictionary, so they are comparable only within this result
    (:func:`joint_graph_colors` compares graphs)."""
    ctx = _Context(_TupleTable(spec, g), ColorDictionary())
    for iterations, (colors,) in enumerate(_stabilize([ctx])):
        pass
    return RefinementResult(
        stable_colors=colors,
        iterations=iterations,
        graph_color=ctx.pool(colors),
    )


def _tables_of(spec: GfwlSpec, graphs: Sequence[Graph], tables: Sequence[_TupleTable] | None) -> list:
    """The tuple table of ``(spec, g)`` per graph ``g``: ``tables`` when
    the caller built them already, else new ones that share one
    ``hall_ids`` dictionary, so any two of them can play a bijection
    game."""
    if tables is None:
        hall_ids = ColorDictionary()
        return [_TupleTable(spec, g, hall_ids) for g in graphs]
    if len(tables) != len(graphs) or any(t.spec != spec or t.g != g for t, g in zip(tables, graphs)):
        raise ValueError("tables must be the tuple tables of the spec and the graphs, in order")
    return list(tables)


def joint_graph_colors(
    spec: GfwlSpec, *graphs: Graph, tables: Sequence[_TupleTable] | None = None
) -> tuple[int, ...]:
    """Graph-level colors of one or more graphs from one joint run: a
    single dictionary and a single stabilization loop over all their
    tuple universes, so the identifiers are directly comparable.  Two
    graphs get equal colors exactly when :func:`distinguish` says they
    are not distinguished: once the joint partition is stable, further
    rounds only rename colors, so stopping later for other graphs in
    the batch changes no verdict.  ``tables`` hands in the graphs' tuple
    tables when the caller built them already."""
    dic = ColorDictionary()
    contexts = [_Context(table, dic) for table in _tables_of(spec, graphs, tables)]
    for colors in _stabilize(contexts):
        pass  # keep only the last, stable, round
    return tuple(ctx.pool(cols) for ctx, cols in zip(contexts, colors))


def _round_1_signatures(table: _TupleTable, id_for) -> list:
    """Each colored tuple's round-1 signature, sorted: the fold of the
    type codes of ``v + u`` over ``v``'s stage groups (:func:`_collapse`,
    ``id_for`` a dictionary shared by the graphs compared).  The codes
    land in the table's memo, so the refinement rows reuse them.  The
    run deadline is checked per colored tuple."""
    seq, stages, type_code = table.spec.j_seq, table.stages, table.type_code
    return sorted(
        _collapse([type_code(v + u) for u in us], stages[v], seq, "sig", id_for)
        for v, us in _deadline_checked(table.fsets.items())
    )


def distinguish(spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    """True when the refinement assigns ``g`` and ``h`` different
    graph-level colors, the verdict of ``joint_graph_colors(spec, g,
    h)``.  The joint run stops at the first round whose color multisets
    of ``g`` and ``h`` differ.  Round 0 compares the sorted type codes
    of the two universes, read from the tuple tables before any row or
    dictionary id is built, and only when every colored tuple of both
    graphs has a nonempty aggregation set.  Round 1 compares the sorted
    signatures of :func:`_round_1_signatures`, before any refinement
    row is built; only a pair they do not separate builds the rows and
    steps them.  When no round differs, the run goes to stability and
    compares the pooled colors.

    Why a differing round decides the pair.  (a) Replacement 0 of
    ``(v, u)`` is ``v``, so each of ``v``'s messages holds its previous
    color: a tuple with a nonempty aggregation set carries its previous
    color into its next one, through the injective dictionary.  (b) A
    tuple with an empty aggregation set gets the hash of the empty
    multiset chain, one fixed color from round 1 on, which no tuple
    with messages ever gets.  (c) By (a) and (b), from round 1 on a
    tuple's color is a function of its color one round later, one
    function for both graphs since they share the dictionary; so color
    multisets that differ at some round differ at every later one, the
    stable round included.  Under the guard, (a) alone gives the same
    from round 0; without it, round 0 proves nothing, since an empty
    aggregation set drops the tuple's type at round 1.  Pooling hashes
    the stable colors' nested multisets, so different stable multisets
    give different graph-level colors.

    Why signatures decide round 1.  The round-1 color of ``v`` is an
    injective function of the nested multiset of the codes of ``v +
    u``: each message holds the type id of ``v + u``, and its
    replacements' round-0 colors are the types of index selections of
    ``v + u``, which that type determines.  Both colors and signatures
    fold the same stage groups through injective dictionaries, so two
    tuples, of either graph, get equal signatures exactly when they get
    equal round-1 colors, and the sorted signatures differ exactly when
    the round-1 color multisets do.  By (c) that decides the pair, with
    no guard."""
    tables = [_TupleTable(spec, g), _TupleTable(spec, h)]
    if all(all(table.fsets.values()) for table in tables):
        codes_g, codes_h = (sorted(map(table.type_code, table.rset)) for table in tables)
        if codes_g != codes_h:
            return True
    id_for = ColorDictionary().id_for
    if _round_1_signatures(tables[0], id_for) != _round_1_signatures(tables[1], id_for):
        return True
    dic = ColorDictionary()
    ctx_g, ctx_h = contexts = [_Context(table, dic) for table in tables]
    for colors_g, colors_h in itertools.islice(_stabilize(contexts), 1, None):
        if sorted(colors_g.values()) != sorted(colors_h.values()):
            return True
    return ctx_g.pool(colors_g) != ctx_h.pool(colors_h)


# ---------------------------------------------------------------------------
# Spec validation


@dataclass
class SpecValidationReport:
    structure_issues: list = field(default_factory=list)
    closure_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.structure_issues and not self.closure_violations


def validate_spec(spec: GfwlSpec | dict, g: Graph) -> SpecValidationReport:
    """Check (a) index-sequence well-formedness, (b) selector arity, and
    (c) replacement closure on ``g``: every replacement of every colored
    tuple by every aggregation tuple stays inside the tuple universe.

    Accepts a raw JSON dict so malformed configurations are reported
    rather than raised.
    """
    report = SpecValidationReport()
    if isinstance(spec, dict):
        try:
            spec = GfwlSpec.from_json_dict(spec)
        except ConfigurationError as exc:
            report.structure_issues.append(str(exc))
            return report
    # Construction enforces (a) and (b); reaching here means both hold.
    try:
        _TupleTable(spec, g)
    except ClosureError as exc:
        report.closure_violations = exc.violations
    return report
