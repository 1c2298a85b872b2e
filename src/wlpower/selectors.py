"""Tuple-set selectors: the invariant and equivariant set families.

``RSelector`` picks the universe of colored k-tuples for a graph;
``FSelector`` picks, per colored tuple, the t-tuples aggregated over.
Both are closed enumerations (no arbitrary user code) so that the
homomorphism-closure hypothesis behind the counting-power results stays
empirically checkable.  The ``check_*`` helpers accept a callable in
place of a selector for negative-control experiments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import ConfigurationError, DomainError
from .graphs import Graph, distance_table, homomorphisms

_R_KINDS = ("all_k_tuples", "distance_restricted")
_F_KINDS = ("all_t_tuples", "all_nodes", "local_neighbor_union", "delta_ball_intersection")


def _check_delta(kind: str, delta: int | None, needs_delta: bool) -> None:
    if needs_delta:
        if delta is None or delta < 1:
            raise ConfigurationError(f"{kind} needs a positive delta, got {delta}")
    elif delta is not None:
        raise ConfigurationError(f"{kind} takes no delta")


@dataclass(frozen=True)
class RSelector:
    """Which k-tuples of a graph get colored.

    kinds: ``all_k_tuples`` (every k-tuple) and ``distance_restricted``
    (pairs within distance delta; legal only with k=2).
    """

    kind: str
    delta: int | None = None

    def __post_init__(self):
        if self.kind not in _R_KINDS:
            raise ConfigurationError(f"unknown R selector kind {self.kind!r}")
        _check_delta(self.kind, self.delta, self.kind == "distance_restricted")

    def validate_arity(self, k: int) -> None:
        if self.kind == "distance_restricted" and k != 2:
            raise ConfigurationError("distance_restricted requires k=2")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RSelector":
        return cls(kind=obj.get("kind", ""), delta=obj.get("delta"))


@dataclass(frozen=True)
class FSelector:
    """Which t-tuples are aggregated for a colored tuple ``v``.

    kinds: ``all_t_tuples``; ``all_nodes`` (t=1); ``local_neighbor_union``
    (t=1, union of the neighborhoods of the entries of ``v``); and
    ``delta_ball_intersection`` (k=2, t=1, nodes within distance delta of
    both endpoints).
    """

    kind: str
    delta: int | None = None

    def __post_init__(self):
        if self.kind not in _F_KINDS:
            raise ConfigurationError(f"unknown F selector kind {self.kind!r}")
        _check_delta(self.kind, self.delta, self.kind == "delta_ball_intersection")

    def validate_arity(self, k: int, t: int) -> None:
        if self.kind in ("all_nodes", "local_neighbor_union", "delta_ball_intersection") and t != 1:
            raise ConfigurationError(f"{self.kind} requires t=1")
        if self.kind == "delta_ball_intersection" and k != 2:
            raise ConfigurationError("delta_ball_intersection requires k=2")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FSelector":
        return cls(kind=obj.get("kind", ""), delta=obj.get("delta"))


def r_set(sel: RSelector, k: int, g: Graph) -> set[tuple[int, ...]]:
    """Materialize the colored k-tuple universe of ``g``."""
    sel.validate_arity(k)
    if sel.kind == "all_k_tuples":
        return set(itertools.product(range(g.n), repeat=k))
    # distance_restricted, k == 2
    dt = distance_table(g)
    return {
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if dt.dist(u, v) <= sel.delta
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
        union: set[int] = set()
        for x in v:
            union |= g.adj[x]
        return {(w,) for w in union}
    # delta_ball_intersection, k == 2, t == 1
    dt = distance_table(g)
    a, b = v
    return {
        (w,)
        for w in range(g.n)
        if dt.dist(a, w) <= sel.delta and dt.dist(w, b) <= sel.delta
    }


# ---------------------------------------------------------------------------
# Empirical property checkers


@dataclass
class InvarianceReport:
    trials: int
    violations: list

    @property
    def passed(self) -> bool:
        return not self.violations


def _map_tuples(tuples: Iterable[tuple[int, ...]], mapping: Sequence[int]) -> set:
    """Apply a node map (permutation or homomorphism image) entrywise."""
    return {tuple(mapping[x] for x in tup) for tup in tuples}


def check_r_invariance(
    sel: RSelector | Callable[[Graph], set],
    k: int,
    g: Graph,
    trials: int = 100,
    seed: int = 0,
) -> InvarianceReport:
    """Verify ``perm(R(G)) == R(perm(G))`` for random node permutations.

    ``sel`` may be a callable ``graph -> set of k-tuples`` so broken
    selectors can be exercised as negative controls.
    """
    get = sel if callable(sel) else (lambda graph: r_set(sel, k, graph))
    rng = random.Random(seed)
    base = get(g)
    violations = []
    for trial in range(trials):
        perm = list(range(g.n))
        rng.shuffle(perm)
        expected = _map_tuples(base, perm)
        actual = get(g.permuted(perm))
        if expected != actual:
            violations.append({"trial": trial, "perm": tuple(perm)})
    return InvarianceReport(trials=trials, violations=violations)


def check_f_equivariance(
    sel: FSelector | Callable[[Graph, tuple], set],
    k: int,
    t: int,
    g: Graph,
    trials: int = 100,
    seed: int = 0,
) -> InvarianceReport:
    """Verify ``perm(F(G, v)) == F(perm(G), perm(v))`` for random
    permutations, over every k-tuple ``v`` of ``g``."""
    get = sel if callable(sel) else (lambda graph, v: f_set(sel, t, graph, v))
    rng = random.Random(seed)
    tuples = list(itertools.product(range(g.n), repeat=k))
    base = {v: get(g, v) for v in tuples}
    violations = []
    for trial in range(trials):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.permuted(perm)
        for v in tuples:
            expected = _map_tuples(base[v], perm)
            actual = get(h, tuple(perm[x] for x in v))
            if expected != actual:
                violations.append({"trial": trial, "perm": tuple(perm), "tuple": v})
                break
    return InvarianceReport(trials=trials, violations=violations)


@dataclass
class HomClosedReport:
    pairs_checked: int
    maps_checked: int
    counterexamples: list
    truncated: bool

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_hom_closed(
    sel: RSelector | FSelector,
    k: int,
    t: int | None,
    pool: Sequence[Graph],
    *,
    max_maps_per_pair: int = 50000,
    sampler: Callable[[Graph, Graph], Iterable[tuple[int, ...]]] = homomorphisms,
    time_check: Callable[[], None] | None = None,
) -> HomClosedReport:
    """Check closure under homomorphisms on a pool of small graphs.

    For an :class:`RSelector` (``t is None``): every homomorphism ``h``
    must satisfy ``h(R(G)) subset of R(H)``.  For an :class:`FSelector`:
    ``h(F(G, v)) subset of F(H, h(v)))`` for every k-tuple ``v``.  The
    per-pair map budget marks the report as truncated instead of failing.
    ``sel`` may also be a callable (``graph -> set`` in R mode,
    ``(graph, v) -> set`` in F mode) for negative controls.
    ``time_check`` (if given) is invoked once per pool pair and may
    raise to abort the check.
    """
    if t is None:
        get_r = sel if callable(sel) else (lambda graph: r_set(sel, k, graph))
    else:
        get_f = sel if callable(sel) else (lambda graph, v: f_set(sel, t, graph, v))
    pairs = 0
    maps = 0
    truncated = False
    counterexamples = []
    for g in pool:
        if t is not None:
            source_f = {
                v: get_f(g, v)
                for v in itertools.product(range(g.n), repeat=k)
            }
        for h_graph in pool:
            if time_check is not None:
                time_check()
            pairs += 1
            if t is None:
                source_r = get_r(g)
                target_r = get_r(h_graph)
            else:
                target_f: dict[tuple, set] = {}
            budget = max_maps_per_pair
            for hom in sampler(g, h_graph):
                if budget == 0:
                    truncated = True
                    break
                budget -= 1
                maps += 1
                if t is None:
                    if not _map_tuples(source_r, hom) <= target_r:
                        counterexamples.append({"g": g, "h": h_graph, "hom": hom})
                        break
                else:
                    bad = False
                    for v, f_of_v in source_f.items():
                        target_v = tuple(hom[x] for x in v)
                        if target_v not in target_f:
                            target_f[target_v] = get_f(h_graph, target_v)
                        if not _map_tuples(f_of_v, hom) <= target_f[target_v]:
                            counterexamples.append(
                                {"g": g, "h": h_graph, "hom": hom, "tuple": v}
                            )
                            bad = True
                            break
                    if bad:
                        break
    return HomClosedReport(
        pairs_checked=pairs,
        maps_checked=maps,
        counterexamples=counterexamples,
        truncated=truncated,
    )
