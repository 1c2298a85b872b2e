"""Generalized folklore Weisfeiler-Leman color refinement.

An instance is configured by :class:`GfwlSpec`: arities ``k`` and ``t``,
two strictly increasing index sequences that stage the aggregations, and
the two tuple-set selectors.  Colors start as isomorphism types of the
selected k-tuples (the integer codes of :func:`~wlpower.graphs.atp`),
then repeat an update step (replacement messages from the selected
t-tuples, collapsed by nested multiset aggregations) until the induced
partition stops changing, and finally pool to one graph-level color.
One tuple table per (spec, graph), which both games extend, checks when
built that every replacement stays in the universe (``ClosureError``).

All hashing goes through one shared append-only :class:`ColorDictionary`
mapping canonical content keys to fresh integers, so color identifiers
are injective by construction.  Identifiers are only comparable within
one dictionary; :func:`distinguish` therefore runs both graphs jointly
against a single dictionary, and :func:`joint_graph_colors` does the
same for any number of graphs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import ClosureError, ConfigurationError, DomainError, check_deadline
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

    @property
    def replacement_count(self) -> int:
        return len(_index_vectors(self.k, self.t))

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "i_seq": list(self.i_seq),
            "j_seq": list(self.j_seq),
            "r": self.r_selector.to_json_dict(),
            "f": self.f_selector.to_json_dict(),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

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
class ColorMap:
    """Colors over the selected tuple universe plus the dictionary the
    identifiers live in."""

    colors: dict
    dictionary: ColorDictionary


@dataclass
class RefinementResult:
    stable_colors: ColorMap
    iterations: int
    graph_color: int


def _collapse(values: dict, lengths: Sequence[int], stage: str, dic: ColorDictionary) -> int:
    """Run nested multiset aggregations, projecting to each target length
    in turn, and return the final length-0 value.  An empty input yields
    the hash of the empty multiset chain."""
    cur = values
    for length in lengths:
        groups: dict = {}
        for tup, val in cur.items():
            groups.setdefault(tup[:length], []).append(val)
        cur = {
            prefix: dic.id_for(("aggr", stage, length, tuple(sorted(ids))))
            for prefix, ids in groups.items()
        }
    if not cur:
        return dic.id_for(("aggr", stage, 0, ()))
    return cur[()]


class _TupleTable:
    """The tuple facts of one (spec, graph), built once per call: the
    sorted universe ``rset``, each colored tuple's sorted aggregation
    tuples ``fsets[v]``, the replacement ``getters`` and one memo of
    :func:`~wlpower.graphs.atp` codes.  Refinement and both games read
    them through subclasses, :func:`validate_spec` directly.  Building
    it raises :class:`ClosureError` when a replacement leaves the
    universe; a universe of all ``g.n ** k`` tuples is closed by
    counting, so the walk is skipped there."""

    def __init__(self, spec: GfwlSpec, g: Graph):
        self.g = g
        self.rset = sorted(r_set(spec.r_selector, spec.k, g))
        self.fsets = {v: sorted(f_set(spec.f_selector, spec.t, g, v)) for v in self.rset}
        self.getters = getters = _replacement_getters(spec.k, spec.t)
        self._types: dict = {}
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


class _Context(_TupleTable):
    """The tuple table plus what every update step reads: per colored
    tuple ``v``, one row per aggregation tuple ``u`` in sorted order
    holding ``u``, the dictionary id of the isomorphism type of ``v + u``,
    and the replacements of ``v`` by ``u``."""

    def __init__(self, spec: GfwlSpec, g: Graph, dictionary: ColorDictionary):
        super().__init__(spec, g)
        self.dictionary = dictionary
        id_for, type_code, getters = dictionary.id_for, self.type_code, self.getters
        self.rows = {
            v: [(u, id_for(("atp", type_code(v + u))), [get(v + u) for get in getters]) for u in us]
            for v, us in self.fsets.items()
        }
        self.j_desc = tuple(reversed(spec.j_seq[:-1]))
        self.i_desc = tuple(reversed(spec.i_seq[:-1]))

    def initial_colors(self) -> dict:
        return {v: self.dictionary.id_for(("atp", self.type_code(v))) for v in self.rset}

    def step(self, colors: dict) -> dict:
        id_for, j_desc = self.dictionary.id_for, self.j_desc
        new = {}
        for v, rows in self.rows.items():
            msgs = {
                u: id_for(("msg", type_id, tuple([colors[w] for w in reps])))
                for u, type_id, reps in rows
            }
            new[v] = _collapse(msgs, j_desc, "upd", self.dictionary)
        return new

    def pool(self, colors: dict) -> int:
        return _collapse(dict(colors), self.i_desc, "pool", self.dictionary)


def _partition_signature(contexts: Sequence[_Context], colors: Sequence[dict]) -> tuple:
    seen: dict = {}
    return tuple(
        seen.setdefault(cols[v], len(seen))
        for ctx, cols in zip(contexts, colors)
        for v in ctx.rset
    )


def _stabilize(contexts: Sequence[_Context]) -> tuple[list[dict], int]:
    """Step every context until the partition over the union of their
    tuple universes stops changing; returns the stable colorings, one
    per context, and the number of steps.  The run deadline is checked
    before every step."""
    colors = [ctx.initial_colors() for ctx in contexts]
    signature = _partition_signature(contexts, colors)
    bound = sum(len(ctx.rset) for ctx in contexts) + 1
    iterations = 0
    while True:
        check_deadline()
        colors = [ctx.step(cols) for ctx, cols in zip(contexts, colors)]
        iterations += 1
        new_signature = _partition_signature(contexts, colors)
        if new_signature == signature:
            return colors, iterations
        signature = new_signature
        # Partition chains on a finite universe are strictly shorter
        # than this; exceeding it means the stability check is broken.
        if iterations > bound:
            raise RuntimeError("refinement exceeded its round bound")


def init_colors(spec: GfwlSpec, g: Graph, dictionary: ColorDictionary | None = None) -> ColorMap:
    """Initial coloring: each selected tuple gets the identifier of its
    isomorphism type."""
    dic = dictionary if dictionary is not None else ColorDictionary()
    ctx = _Context(spec, g, dic)
    return ColorMap(ctx.initial_colors(), dic)


def refine_step(spec: GfwlSpec, g: Graph, colors: ColorMap) -> ColorMap:
    """One update step: messages from every aggregation tuple (its
    concatenated isomorphism type plus the colors of all replacements in
    lexicographic order), collapsed by the staged aggregations."""
    ctx = _Context(spec, g, colors.dictionary)
    if set(colors.colors) != set(ctx.rset):
        raise DomainError("color map domain must equal the selected tuple universe")
    return ColorMap(ctx.step(colors.colors), colors.dictionary)


def stabilize(
    spec: GfwlSpec, g: Graph, dictionary: ColorDictionary | None = None
) -> RefinementResult:
    """Iterate update steps until the induced partition stops changing,
    then pool to the graph-level color."""
    dic = dictionary if dictionary is not None else ColorDictionary()
    ctx = _Context(spec, g, dic)
    (colors,), iterations = _stabilize([ctx])
    return RefinementResult(
        stable_colors=ColorMap(colors, dic),
        iterations=iterations,
        graph_color=ctx.pool(colors),
    )


def joint_graph_colors(spec: GfwlSpec, *graphs: Graph) -> tuple[int, ...]:
    """Graph-level colors of one or more graphs from one joint run: a
    single dictionary and a single stabilization loop over all their
    tuple universes, so the identifiers are directly comparable.  Two
    graphs get equal colors exactly when :func:`distinguish` says they
    are not distinguished: once the joint partition is stable, further
    rounds only rename colors, so stopping later for other graphs in
    the batch changes no verdict."""
    dic = ColorDictionary()
    contexts = [_Context(spec, g, dic) for g in graphs]
    colors, _ = _stabilize(contexts)
    return tuple(ctx.pool(cols) for ctx, cols in zip(contexts, colors))


def distinguish(spec: GfwlSpec, g: Graph, h: Graph) -> bool:
    """True when the refinement assigns ``g`` and ``h`` different
    graph-level colors (joint run, shared dictionary)."""
    color_g, color_h = joint_graph_colors(spec, g, h)
    return color_g != color_h


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
