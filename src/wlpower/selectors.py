"""Tuple-set selectors: the invariant and equivariant set families.

``RSelector`` picks the universe of colored k-tuples for a graph;
``FSelector`` picks, per colored tuple, the t-tuples aggregated over.
Both are closed enumerations (no arbitrary user code) so that the
homomorphism-closure hypothesis behind the counting-power results stays
empirically checkable: :func:`check_hom_closed` checks it on a pool of
graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

from .errors import ConfigurationError, DomainError, check_deadline
from .graphs import Graph, distance_table, homomorphisms, mask_nodes


@dataclass(frozen=True)
class _Selector:
    """A selector kind from ``_KINDS``; ``delta``, a positive int, is given
    exactly for ``_DELTA_KIND``.  Instances of different subclasses never
    compare equal."""

    kind: str
    delta: int | None = None
    _LABEL: ClassVar[str]
    _KINDS: ClassVar[tuple[str, ...]]
    _DELTA_KIND: ClassVar[str]

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigurationError(f"unknown {self._LABEL} selector kind {self.kind!r}")
        if self.kind == self._DELTA_KIND:
            if type(self.delta) is not int or self.delta < 1:
                raise ConfigurationError(f"{self.kind} needs a positive delta, got {self.delta!r}")
        elif self.delta is not None:
            raise ConfigurationError(f"{self.kind} takes no delta")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @classmethod
    def from_json_dict(cls, obj: dict):
        return cls(kind=obj.get("kind", ""), delta=obj.get("delta"))


class RSelector(_Selector):
    """Which k-tuples of a graph get colored.

    kinds: ``all_k_tuples`` (every k-tuple) and ``distance_restricted``
    (pairs within distance delta; legal only with k=2).
    """

    _LABEL = "R"
    _KINDS = ("all_k_tuples", "distance_restricted")
    _DELTA_KIND = "distance_restricted"

    def validate_arity(self, k: int) -> None:
        if self.kind == "distance_restricted" and k != 2:
            raise ConfigurationError("distance_restricted requires k=2")


class FSelector(_Selector):
    """Which t-tuples are aggregated for a colored tuple ``v``.

    kinds: ``all_t_tuples``; ``all_nodes`` (t=1); ``local_neighbor_union``
    (t=1, union of the neighborhoods of the entries of ``v``); and
    ``delta_ball_intersection`` (k=2, t=1, nodes within distance delta of
    both endpoints).
    """

    _LABEL = "F"
    _KINDS = ("all_t_tuples", "all_nodes", "local_neighbor_union", "delta_ball_intersection")
    _DELTA_KIND = "delta_ball_intersection"

    def validate_arity(self, k: int, t: int) -> None:
        if self.kind in ("all_nodes", "local_neighbor_union", "delta_ball_intersection") and t != 1:
            raise ConfigurationError(f"{self.kind} requires t=1")
        if self.kind == "delta_ball_intersection" and k != 2:
            raise ConfigurationError("delta_ball_intersection requires k=2")


def r_set(sel: RSelector, k: int, g: Graph) -> set[tuple[int, ...]]:
    """Materialize the colored k-tuple universe of ``g``."""
    sel.validate_arity(k)
    if sel.kind == "all_k_tuples":
        return set(itertools.product(range(g.n), repeat=k))
    # distance_restricted, k == 2
    dist = distance_table(g)
    return {
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if dist[u][v] <= sel.delta
    }


def f_set(sel: FSelector, t: int, g: Graph, v: Sequence[int]) -> set[tuple[int, ...]]:
    """Materialize the aggregation t-tuples for colored tuple ``v``."""
    v = tuple(v)
    for x in v:
        if not 0 <= x < g.n:
            raise DomainError(f"tuple entry {x} outside 0..{g.n - 1}")
    sel.validate_arity(len(v), t)
    if sel.kind == "all_t_tuples":
        return set(itertools.product(range(g.n), repeat=t))
    if sel.kind == "all_nodes":
        return {(w,) for w in range(g.n)}
    if sel.kind == "local_neighbor_union":
        union = 0
        for x in v:
            union |= g.adj_masks[x]
        return {(w,) for w in mask_nodes(union)}
    # delta_ball_intersection, k == 2, t == 1
    dist = distance_table(g)
    a, b = v
    return {
        (w,)
        for w in range(g.n)
        if dist[a][w] <= sel.delta and dist[w][b] <= sel.delta
    }


# ---------------------------------------------------------------------------
# Empirical hom-closure check


def _map_tuples(tuples: Iterable[tuple[int, ...]], mapping: Sequence[int]) -> set:
    """Apply a node map (a homomorphism's image list) entrywise."""
    return {tuple(mapping[x] for x in tup) for tup in tuples}


@dataclass
class HomClosedReport:
    pairs_checked: int
    maps_checked: int
    counterexamples: list
    truncated: bool

    @property
    def passed(self) -> bool:
        return not self.counterexamples


_MAX_MAPS_PER_PAIR = 50000


def check_hom_closed(
    sel: RSelector | FSelector,
    k: int,
    t: int | None,
    pool: Sequence[Graph],
) -> HomClosedReport:
    """Check closure under homomorphisms on a pool of small graphs.

    For an :class:`FSelector`: ``h(F(G, v)) subset of F(H, h(v)))`` for
    every homomorphism ``h`` and k-tuple ``v``.  For an
    :class:`RSelector` (``t is None``): ``h(R(G)) subset of R(H)``,
    checked as F mode with the single key ``()``, since ``R(G)`` is
    ``F(G, ())``.  Each graph's sets are computed once, on first use.
    More than ``_MAX_MAPS_PER_PAIR`` maps in one pair marks the report as
    truncated instead of failing.  A counterexample names its ``"tuple"``
    in F mode.  The run deadline is checked once per pool pair and every
    1024 maps.
    """
    if t is None:
        get = lambda graph, v: r_set(sel, k, graph)
    else:
        get = lambda graph, v: f_set(sel, t, graph, v)
    tables: list[dict[tuple, set]] = [{} for _ in pool]

    def selected(i: int, v: tuple) -> set:
        if v not in tables[i]:
            tables[i][v] = get(pool[i], v)
        return tables[i][v]

    pairs = 0
    maps = 0
    truncated = False
    counterexamples = []
    for gi, g in enumerate(pool):
        keys = [()] if t is None else itertools.product(range(g.n), repeat=k)
        sources = [(v, selected(gi, v)) for v in keys]
        for hi, h_graph in enumerate(pool):
            check_deadline()
            pairs += 1
            budget = _MAX_MAPS_PER_PAIR
            for hom in homomorphisms(g, h_graph):
                if budget == 0:
                    truncated = True
                    break
                budget -= 1
                if not maps & 1023:
                    check_deadline()
                maps += 1
                for v, source in sources:
                    if not _map_tuples(source, hom) <= selected(hi, tuple(hom[x] for x in v)):
                        break
                else:
                    continue
                example = {"g": g, "h": h_graph, "hom": hom}
                counterexamples.append(example if t is None else {**example, "tuple": v})
                break
    return HomClosedReport(
        pairs_checked=pairs,
        maps_checked=maps,
        counterexamples=counterexamples,
        truncated=truncated,
    )
