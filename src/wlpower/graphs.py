"""Graph values and the exact combinatorial toolbox built on them.

This module owns the immutable :class:`Graph` type plus everything that
treats graphs as plain combinatorial objects: graph6 and JSON parsing,
isomorphism types of node tuples, connected components, shortest-path
distances, homomorphism counting, canonical forms, enumeration of
isomorphism classes, and an exact treewidth solver.  All of them work on
adjacency masks, and one graph6 bit encoder serves emission, the
canonical search and enumeration.  All functions are pure; none mutates
its arguments.
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BudgetError, DomainError, GraphFormatError, check_deadline

#: Sentinel distance for unreachable node pairs.  Strictly larger than any
#: supported node count, so predicates of the form ``d(u, v) <= delta``
#: stay total on disconnected graphs.
INFINITY = 2 ** 30

_GRAPH6_MAX_NODES = 62


def _as_int(value, what: str) -> int:
    """``value`` as a plain int (numpy integers included); ``bool`` and
    non-integers raise :class:`DomainError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


class Graph:
    """A simple undirected graph on nodes ``0 .. n-1``.

    Edges are unordered pairs with no self-loops and no duplicates.  The
    adjacency is stored once, as ``adj_masks``: entry ``u`` is the node
    mask of the neighbors of ``u`` (bit ``w`` set iff ``u`` and ``w`` are
    adjacent).  ``edge_set`` (pairs ``u < v``) is computed from the masks
    on access.  Instances are immutable and hashable; equality is
    label-sensitive (use :func:`canonical_form` for isomorphism-class
    identity).
    """

    __slots__ = ("n", "adj_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = _as_int(n, "node count")
        if n < 0:
            raise DomainError(f"node count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                u, v = _as_int(u, "edge endpoint"), _as_int(v, "edge endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise DomainError(f"self-loop at node {u} is not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through ``__init__``; restoring the
        # slots directly would go through the blocked ``__setattr__``
        return Graph, (self.n, sorted(self.edge_set))

    @property
    def edge_set(self) -> frozenset:
        return frozenset(
            (u, v) for u, row in enumerate(self.adj_masks) for v in mask_nodes(row) if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj_masks) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self.adj_masks[u] >> v & 1 == 1

    def neighbors(self, u: int) -> frozenset:
        return frozenset(mask_nodes(self.adj_masks[u]))

    def degree(self, u: int) -> int:
        return self.adj_masks[u].bit_count()

    def permuted(self, perm: Sequence[int]) -> "Graph":
        """Relabel nodes: node ``u`` becomes ``perm[u]``."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("perm must be a permutation of 0..n-1")
        return Graph(self.n, ((perm[u], perm[v]) for u, v in self.edge_set))

    def __eq__(self, other):
        # ``len(adj_masks)`` is ``n``, so equal masks mean equal graphs
        return isinstance(other, Graph) and self.adj_masks == other.adj_masks

    def __hash__(self):
        return hash(self.adj_masks)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edge_set)})"


# ---------------------------------------------------------------------------
# Standard constructions


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise DomainError("a cycle needs at least 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and ``leaves`` leaves (``leaves + 1`` nodes)."""
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edge_set)
        n += g.n
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# graph6 and JSON edge-list encodings


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one short-form graph6 line (n <= 62).

    Raises :class:`GraphFormatError` with a byte offset on malformed
    input: bad header, characters outside the printable range, body
    length mismatch, or nonzero padding bits.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphFormatError("empty graph6 line")
    header = ord(line[0])
    if header == 126:
        raise GraphFormatError("long-form graph6 (n > 62) is not supported", offset=0)
    if not 63 <= header <= 63 + _GRAPH6_MAX_NODES:
        raise GraphFormatError(f"invalid graph6 header byte {header}", offset=0)
    n = header - 63
    bit_count = n * (n - 1) // 2
    body_len = (bit_count + 5) // 6
    if len(line) - 1 != body_len:
        raise GraphFormatError(
            f"graph6 body for n={n} needs {body_len} bytes, got {len(line) - 1}",
            offset=len(line) if len(line) - 1 < body_len else body_len + 1,
        )
    bits = 0
    for idx, ch in enumerate(line[1:], start=1):
        b = ord(ch)
        if not 63 <= b <= 126:
            raise GraphFormatError(f"graph6 byte {b} out of range 63..126", offset=idx)
        bits = bits << 6 | b - 63
    if bits & (1 << 6 * body_len - bit_count) - 1:
        raise GraphFormatError("nonzero padding bits in final graph6 byte", offset=body_len)
    # the pair at graph6 position idx is bit ``top - idx``
    top = 6 * body_len - 1
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, (p for idx, p in enumerate(pairs) if bits >> top - idx & 1))


def _graph6_bits(adj: Sequence[int], order: Sequence[int]) -> int:
    """The graph6 body bits, as one int, of the graph whose node ``i`` is
    node ``order[i]`` of the graph with adjacency masks ``adj``: one bit
    per pair ``i < j``, column ``j`` by column, the first pair most
    significant.  All graphs on ``n`` nodes give equally long bit strings,
    so for a fixed ``n`` int order is graph6 byte order."""
    bits = 0
    for j in range(1, len(order)):
        row = adj[order[j]]
        for i in range(j):
            bits = bits << 1 | row >> order[i] & 1
    return bits


def _graph6_text(n: int, bits: int) -> str:
    """The short-form graph6 line of an ``n``-node graph with body
    ``bits`` (see :func:`_graph6_bits`), zero-padded to whole bytes."""
    count = n * (n - 1) // 2
    size = (count + 5) // 6
    bits <<= 6 * size - count
    body = (chr((bits >> shift & 63) + 63) for shift in range(6 * size - 6, -1, -6))
    return chr(n + 63) + "".join(body)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one short-form graph6 line (round-trips with
    :func:`parse_graph6`)."""
    if g.n > _GRAPH6_MAX_NODES:
        raise DomainError(f"graph6 short form supports at most 62 nodes, got {g.n}")
    return _graph6_text(g.n, _graph6_bits(g.adj_masks, range(g.n)))


def parse_graph_json(text: str) -> Graph:
    """Decode the JSON edge-list form ``{"n": int, "edges": [[u, v], ...]}``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON graph: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj:
        raise GraphFormatError('JSON graph must be an object with an "n" field')
    n = obj["n"]
    edges = obj.get("edges", [])
    # ``type(x) is int`` also rejects JSON ``true`` and ``false``
    if type(n) is not int or not isinstance(edges, list):
        raise GraphFormatError('JSON graph fields: "n" int, "edges" list of pairs')
    pairs = []
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2 and all(type(x) is int for x in item)):
            raise GraphFormatError(f"edge entry {item!r} is not a pair of integers")
        pairs.append((item[0], item[1]))
    try:
        return Graph(n, pairs)
    except DomainError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edge_set)]}


# ---------------------------------------------------------------------------
# Isomorphism types of node tuples


def atp(g: Graph, v: Sequence[int]) -> int:
    """Isomorphism type of tuple ``v`` inside ``g`` as one integer code.

    The code's bits are a leading 1, then each entry's first position in
    ``v`` in fields of ``len(v).bit_length()`` bits, then one adjacency
    bit per position pair ``i < j`` in lexicographic order.  The bit
    length fixes ``len(v)``, so two tuples, in one graph or in two, get
    equal codes exactly when they have the same length, the same
    entry-equality pattern and the same induced adjacency.
    """
    v = tuple(v)
    for x in v:
        if not 0 <= x < g.n:
            raise DomainError(f"tuple entry {x} outside 0..{g.n - 1}")
    width = len(v).bit_length()
    code = 1
    for x in v:
        code = code << width | v.index(x)
    adj = g.adj_masks
    for i, x in enumerate(v):
        row = adj[x]
        for y in v[i + 1:]:
            code = code << 1 | row >> y & 1
    return code


# ---------------------------------------------------------------------------
# Components and distances


def node_mask(nodes: Iterable[int]) -> int:
    """The node mask of ``nodes``: bit ``v`` set iff ``v`` is among them."""
    mask = 0
    for v in nodes:
        mask |= 1 << v
    return mask


def mask_nodes(mask: int) -> list[int]:
    """The nodes of a node mask, ascending."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


def component_masks(adj: Sequence[int], blocked: int) -> list[int]:
    """Connected components of the graph with adjacency masks ``adj``
    (such as :attr:`Graph.adj_masks`), induced on the nodes outside the
    node mask ``blocked``, as node masks sorted by smallest member."""
    rest = ((1 << len(adj)) - 1) & ~blocked
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


@lru_cache(maxsize=4096)
def distance_table(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest-path distances as rows, ``dist[u][v]``, with
    :data:`INFINITY` marking unreachable pairs.  Found by a breadth-first
    search from every node, one layer (a node mask) at a time."""
    adj = g.adj_masks
    rows = []
    for src in range(g.n):
        row = [INFINITY] * g.n
        seen = layer = 1 << src
        dist = 0
        while layer:
            reach = 0
            for v in mask_nodes(layer):
                row[v] = dist
                reach |= adj[v]
            layer = reach & ~seen
            seen |= layer
            dist += 1
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Homomorphism counting


def rooted_hom_count(pattern: Graph, pins: Mapping[int, int], target: Graph) -> int:
    """Count homomorphisms ``pattern -> target`` extending ``pins``.

    With empty pins this equals :func:`hom_count`.  Each component is
    searched in an order that places its pins first (or else its lowest
    node), then always the lowest unplaced node next to a placed one.  A
    node's candidates are its allowed images (its pin, or every target
    node) ANDed with the target adjacency masks of its placed neighbors;
    the last node's are counted, not visited.  The run deadline is
    checked every 1024 calls that place a node.
    """
    for u, img in pins.items():
        if not 0 <= u < pattern.n:
            raise DomainError(f"pin key {u} is not a pattern node")
        if not 0 <= img < target.n:
            raise DomainError(f"pin value {img} is not a target node")

    adj, target_adj = pattern.adj_masks, target.adj_masks
    pinned = node_mask(pins)
    every_node = (1 << target.n) - 1
    image = [0] * pattern.n
    total = 1
    calls = 0
    for comp in component_masks(adj, 0):
        # (node, its neighbors placed before it, its allowed images), in
        # search order
        steps = []
        placed = reach = 0
        pending = comp & pinned or comp & -comp
        while pending:
            low = pending & -pending
            u = low.bit_length() - 1
            steps.append((u, mask_nodes(adj[u] & placed), 1 << pins[u] if low & pinned else every_node))
            placed |= low
            reach |= adj[u]
            rest = comp & ~placed
            pending = rest & pinned or rest & reach
        last = len(steps) - 1

        def count_from(idx: int) -> int:
            nonlocal calls
            calls += 1
            if not calls & 1023:
                check_deadline()
            u, placed_nbrs, candidates = steps[idx]
            for w in placed_nbrs:
                candidates &= target_adj[image[w]]
            if idx == last:
                return candidates.bit_count()
            subtotal = 0
            while candidates:
                low = candidates & -candidates
                image[u] = low.bit_length() - 1
                subtotal += count_from(idx + 1)
                candidates ^= low
            return subtotal

        total *= count_from(0)
        if total == 0:
            return 0
    return total


def hom_count(pattern: Graph, target: Graph) -> int:
    """Number of edge-preserving maps ``pattern -> target`` (1 for the
    empty pattern)."""
    return rooted_hom_count(pattern, {}, target)


def homomorphisms(pattern: Graph, target: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every homomorphism as an image tuple, in lexicographic order."""
    target_adj = target.adj_masks
    every_node = (1 << target.n) - 1
    earlier_nbrs = [mask_nodes(m & ((1 << u) - 1)) for u, m in enumerate(pattern.adj_masks)]
    img = [0] * pattern.n

    def extend(u: int) -> Iterator[tuple[int, ...]]:
        if u == pattern.n:
            yield tuple(img)
            return
        candidates = every_node
        for w in earlier_nbrs[u]:
            candidates &= target_adj[img[w]]
        for cand in mask_nodes(candidates):
            img[u] = cand
            yield from extend(u + 1)

    yield from extend(0)


# ---------------------------------------------------------------------------
# Canonical forms


def _refine_colors(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Stable color refinement: repeatedly split classes by multisets of
    neighbor colors, with class ids assigned in sorted key order."""
    while True:
        keys = [(c, tuple(sorted(colors[w] for w in ws))) for c, ws in zip(colors, nbrs)]
        mapping = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [mapping[key] for key in keys]
        if len(mapping) == len(set(colors)):
            return new
        colors = new


def _cells(colors: list[int]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _cells_homogeneous(adj: Sequence[int], cells: list[list[int]]) -> bool:
    """True when adjacency is constant within every cell and between every
    pair of cells, so any in-cell node order yields identical bytes.  As
    adjacency is symmetric, it suffices that each node's row meets each
    cell (the node itself aside) in nothing or in all of it."""
    masks = [node_mask(cell) for cell in cells]
    for cell in cells:
        for u in cell:
            row = adj[u]
            for mask in masks:
                meet = row & mask
                if meet and meet != mask & ~(1 << u):
                    return False
    return True


_CANON_MAX_NODES = 16
_CANON_MAX_LEAVES = 200_000


def _canonical_bits(adj: Sequence[int]) -> int:
    """The graph6 body bits (see :func:`_graph6_bits`) of the canonical
    relabeling of the graph with adjacency masks ``adj``; the search is
    described at :func:`canonical_form`."""
    n = len(adj)
    nbrs = [mask_nodes(row) for row in adj]
    best = 1 << n * (n - 1) // 2  # above every body of n nodes
    leaves = 0

    def search(colors: list[int]) -> None:
        nonlocal best, leaves
        colors = _refine_colors(nbrs, colors)
        cells = _cells(colors)
        if len(cells) == n or _cells_homogeneous(adj, cells):
            leaves += 1
            if leaves > _CANON_MAX_LEAVES:
                raise BudgetError(
                    f"canonical form leaf budget {_CANON_MAX_LEAVES} exceeded",
                    stats={"leaves": leaves},
                )
            best = min(best, _graph6_bits(adj, [v for cell in cells for v in cell]))
            return
        target = next(cell for cell in cells if len(cell) > 1)
        target_color = colors[target[0]]
        for v in target:
            # Individualize v: fresh color ordered just before the rest
            # of its cell, preserving the order of all other cells.
            branched = []
            for u in range(n):
                c = 2 * colors[u]
                if colors[u] == target_color and u != v:
                    c += 1
                branched.append(c)
            search(branched)

    search([0] * n)
    return best


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string of the isomorphism class of ``g``.

    The result is the graph6 line of a canonically relabeled copy, so
    ``parse_graph6(canonical_form(g))`` is a canonical representative.
    Labeling search: color refinement, then individualization of the
    first non-singleton cell, taking the minimum over leaf labelings of
    their graph6 body bits.  Cell-homogeneous colorings short-circuit the
    search, which keeps complete and empty graphs cheap.  Graphs over
    ``_CANON_MAX_NODES`` nodes, or searches over ``_CANON_MAX_LEAVES``
    leaves, raise :class:`BudgetError`.
    """
    if g.n > _CANON_MAX_NODES:
        raise BudgetError(
            f"canonical form budget is {_CANON_MAX_NODES} nodes, got {g.n}",
            stats={"nodes": g.n},
        )
    return _graph6_text(g.n, _canonical_bits(g.adj_masks)).encode("ascii")


# ---------------------------------------------------------------------------
# Enumeration of isomorphism classes


_ENUM_MAX_NODES = 8


def _new_node_has_least_key(adj: Sequence[int], connected_only: bool) -> bool:
    """Whether no eligible node of the candidate with adjacency masks
    ``adj`` has a smaller key than its last (new) node.  A node's key is
    its degree and then its neighbours' sorted degrees; eligible nodes
    are the non-cut nodes when ``connected_only``, and all nodes
    otherwise.  Only nodes whose key is smaller get the cut test."""
    new = len(adj) - 1
    degrees = [row.bit_count() for row in adj]

    def key(v: int) -> tuple[int, list[int]]:
        return degrees[v], sorted(degrees[w] for w in mask_nodes(adj[v]))

    new_key = key(new)
    return not any(
        key(u) < new_key and (not connected_only or len(component_masks(adj, 1 << u)) == 1)
        for u in range(new)
    )


def enumerate_connected_graphs(n_max: int, *, connected_only: bool = True) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class with
    1..n_max nodes, ordered by node count then canonical form.

    By default only connected classes are produced (query-graph
    enumeration); ``connected_only=False`` switches to all classes,
    which oracle tests use.  Classes on ``n`` nodes are built from the
    0-node graph up by adding one node to every class on ``n - 1`` nodes
    with every neighborhood subset (nonempty in the connected case, from
    the second node on).  A candidate is canonicalized only when its new
    node has the least key among its eligible nodes (see
    :func:`_new_node_has_least_key`), after McKay's canonical
    construction path: the key, degree then sorted neighbour degrees,
    is an isomorphism invariant and costs far less than the canonical
    search.  No class is missed: every connected graph has a non-cut
    node, so every class has an eligible node; delete one of least key
    and the rest is a class on ``n - 1`` nodes (connected, in the
    connected case, as the node is not a cut node), and the
    candidate that adds the node back passes, since its new node has
    that same least key.  Ties must pass, as a class whose least key
    is shared by several eligible nodes has no candidate whose new
    node alone is least.  Several candidates of one class still pass
    (tied nodes, or the same node added to automorphic neighborhoods),
    so the candidates' canonical graph6 bits are still deduplicated in
    a set; the class list and its representatives are those of
    canonicalizing every candidate.  ``n_max`` over ``_ENUM_MAX_NODES``
    raises :class:`BudgetError`, and so does the run deadline, checked
    once per base class.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if n_max > _ENUM_MAX_NODES:
        raise BudgetError(
            f"enumeration budget is {_ENUM_MAX_NODES} nodes, got n_max={n_max}",
            stats={"n_max": n_max},
        )
    previous = [Graph(0)]
    for n in range(1, n_max + 1):
        new = n - 1
        low = 1 if connected_only and new else 0
        classes = set()
        for base in previous:
            check_deadline()
            for bits in range(low, 1 << new):
                masks = [row | (bits >> w & 1) << new for w, row in enumerate(base.adj_masks)]
                masks.append(bits)
                if _new_node_has_least_key(masks, connected_only):
                    classes.add(_canonical_bits(masks))
        previous = [parse_graph6(_graph6_text(n, bits)) for bits in sorted(classes)]
        yield from previous


# ---------------------------------------------------------------------------
# Exact treewidth


_TREEWIDTH_MAX_NODES = 12


def treewidth(g: Graph) -> int:
    """Exact treewidth by dynamic programming over vertex subsets.

    ``opt[S]`` is the best width eliminating exactly the vertices of
    ``S`` first:  ``opt[S] = min over v in S of max(opt[S - v],
    q(S - v, v))`` where ``q(S, v)`` counts vertices outside ``S + v``
    reachable from ``v`` through ``S`` (Bodlaender, Fomin, Koster,
    Kratsch and Thilikos, ESA 2006).  ``nb[T]``, the union of the
    neighbourhoods of the nodes of ``T``, is tabulated once for all
    ``2 ** n`` subsets; ``v``'s component in ``S`` grows by
    ``comp |= nb[comp] & (S - v)`` until it stops, and ``q`` is the
    popcount of ``nb[comp]`` outside ``S``.  A ``v`` with
    ``opt[S - v]`` at or above the best width so far is skipped, since
    the max cannot go below it.  The empty graph gets -1; graphs over
    ``_TREEWIDTH_MAX_NODES`` nodes raise :class:`BudgetError`.
    """
    n = g.n
    if n > _TREEWIDTH_MAX_NODES:
        raise BudgetError(
            f"treewidth budget is {_TREEWIDTH_MAX_NODES} nodes, got {n}",
            stats={"nodes": n},
        )
    if n == 0:
        return -1

    adj_mask = g.adj_masks
    full = (1 << n) - 1
    nb = [0] * (full + 1)
    for t_mask in range(1, full + 1):
        low = t_mask & -t_mask
        nb[t_mask] = nb[t_mask ^ low] | adj_mask[low.bit_length() - 1]
    opt = [0] * (full + 1)
    opt[0] = -1
    for s_mask in range(1, full + 1):
        best = n
        rest = s_mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            prev = s_mask ^ bit
            floor = opt[prev]
            if floor >= best:
                continue
            comp = bit
            while True:
                grown = comp | nb[comp] & prev
                if grown == comp:
                    break
                comp = grown
            reach = (nb[comp] & ~s_mask).bit_count()
            if reach < best:
                best = reach if reach > floor else floor
        opt[s_mask] = best
    return opt[full]
