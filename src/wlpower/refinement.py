"""Generalized folklore Weisfeiler-Leman color refinement.

An instance is configured by :class:`GfwlSpec`: arities ``k`` and ``t``,
two strictly increasing index sequences that stage the aggregations, and
the two tuple-set selectors.  Colors start as isomorphism types of the
selected k-tuples, then repeat an update step (replacement messages from
the selected t-tuples, collapsed by nested multiset aggregations) until
the induced partition stops changing, and finally pool to one
graph-level color.

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
from typing import Sequence

from .errors import ClosureError, ConfigurationError, DomainError
from .graphs import Graph, atp
from .selectors import FSelector, RSelector, f_set, r_set


@lru_cache(maxsize=None)
def _index_vectors(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """All size-k index subsets of the concatenated (k+t)-tuple, in
    lexicographic order; the first picks out the original k-tuple."""
    return tuple(itertools.combinations(range(k + t), k))


def replacements(v: Sequence[int], u: Sequence[int]) -> list[tuple[int, ...]]:
    """The C = binom(k+t, k) length-k subsequences of the concatenation
    ``(v, u)``, ordered lexicographically by index vector.  The first
    entry is always ``v`` itself."""
    v, u = tuple(v), tuple(u)
    concat = v + u
    return [tuple(concat[i] for i in vec) for vec in _index_vectors(len(v), len(u))]


class ColorDictionary:
    """Shared injective hash: canonical content keys to fresh integers.

    Keys embed their role and aggregation depth (``("atp", ...)``,
    ``("msg", ...)``, ``("aggr", stage, length, ...)``), so one
    dictionary safely serves every hashing site of a refinement run.
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
        if self.k < 1 or self.t < 1:
            raise ConfigurationError(f"k and t must be positive, got k={self.k}, t={self.t}")
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
        try:
            return cls(
                k=obj["k"],
                t=obj["t"],
                i_seq=tuple(obj["i_seq"]),
                j_seq=tuple(obj["j_seq"]),
                r_selector=RSelector.from_json_dict(obj["r"]),
                f_selector=FSelector.from_json_dict(obj["f"]),
            )
        except KeyError as exc:
            raise ConfigurationError(f"spec file missing field {exc}") from exc


def _check_index_seq(name: str, seq: tuple[int, ...], end: int) -> None:
    if len(seq) < 2 or seq[0] != 0 or seq[-1] != end:
        raise ConfigurationError(
            f"{name} must run from 0 to {end}, got {seq}"
        )
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


def _replacement_walk(spec: GfwlSpec, g: Graph, rset: list):
    """Every (colored tuple ``v``, aggregation tuple ``u``) pair on ``g``
    in sorted order, as ``(v, u, replacements of v by u, choice indices
    of the replacements outside the tuple universe)``."""
    universe = set(rset)
    closed = universe.issuperset
    for v in rset:
        for u in sorted(f_set(spec.f_selector, spec.t, g, v)):
            reps = replacements(v, u)
            if closed(reps):
                yield v, u, reps, ()
            else:
                yield v, u, reps, [c for c, w in enumerate(reps) if w not in universe]


class _Context:
    """Per-(spec, graph) precomputation shared by all update steps:
    sorted tuple universe, per-tuple aggregation sets, replacement
    tuples (validated against the universe), and interned concatenated
    isomorphism types."""

    def __init__(self, spec: GfwlSpec, g: Graph, dictionary: ColorDictionary):
        self.spec = spec
        self.g = g
        self.dictionary = dictionary
        self.rset = sorted(r_set(spec.r_selector, spec.k, g))
        self.fsets: dict = {v: [] for v in self.rset}
        self.rep_tuples: dict = {}
        self.atp_ids: dict = {}
        fsets, rep_tuples, atp_ids = self.fsets, self.rep_tuples, self.atp_ids
        for v, u, reps, outside in _replacement_walk(spec, g, self.rset):
            if outside:
                c = outside[0]
                raise ClosureError(
                    f"replacement {reps[c]} of v={v} by u={u} (choice index {c})"
                    " lies outside the colored tuple universe"
                )
            fsets[v].append(u)
            rep_tuples[(v, u)] = reps
            atp_ids[(v, u)] = dictionary.id_for(("atp", atp(g, v + u)))
        self.j_desc = tuple(reversed(spec.j_seq[:-1]))
        self.i_desc = tuple(reversed(spec.i_seq[:-1]))

    def initial_colors(self) -> dict:
        dic = self.dictionary
        return {v: dic.id_for(("atp", atp(self.g, v))) for v in self.rset}

    def step(self, colors: dict) -> dict:
        dic = self.dictionary
        new = {}
        for v in self.rset:
            msgs = {}
            for u in self.fsets[v]:
                cols = tuple(colors[w] for w in self.rep_tuples[(v, u)])
                msgs[u] = dic.id_for(("msg", self.atp_ids[(v, u)], cols))
            new[v] = _collapse(msgs, self.j_desc, "upd", dic)
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
    per context, and the number of steps."""
    colors = [ctx.initial_colors() for ctx in contexts]
    signature = _partition_signature(contexts, colors)
    bound = sum(len(ctx.rset) for ctx in contexts) + 1
    iterations = 0
    while True:
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
    rset = sorted(r_set(spec.r_selector, spec.k, g))
    for v, u, reps, outside in _replacement_walk(spec, g, rset):
        report.closure_violations += (
            {"v": v, "u": u, "choice": c, "replacement": reps[c]} for c in outside
        )
    return report
