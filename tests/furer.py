"""Fürer graphs, a test-side input for the game solvers.

For a graph F, the Fürer graph G(F) and its twisted copy H(F) (Fürer,
"On the combinatorial power of the Weisfeiler-Lehman algorithm", CIAC
2017, after Cai, Fürer and Immerman 1992) differ in hom(F, .) when F is
connected (Roberson, 2022), yet look alike to refinements too weak to
count F.  They have 16 to 40 nodes for F on up to 5 nodes, against the
n <= 8 classes every other test runs on.
"""

import itertools

import wlpower as wl


def furer_pair(f: wl.Graph) -> tuple[wl.Graph, wl.Graph]:
    """``(G(F), H(F))`` for a graph ``f`` with at least one edge.  G(F)
    has one node (x, S) per node x of F and even-size subset S of x's
    neighbours; (x, S) and (y, T) are adjacent iff xy is an edge of F and
    (y in S) == (x in T).  H(F) flips that test on F's least edge."""
    neighbours = [[y for y in range(f.n) if f.adj_masks[x] >> y & 1] for x in range(f.n)]
    nodes = [
        (x, frozenset(subset))
        for x in range(f.n)
        for size in range(0, len(neighbours[x]) + 1, 2)
        for subset in itertools.combinations(neighbours[x], size)
    ]
    twisted = min(f.edge_set)

    def graph(twist: bool) -> wl.Graph:
        edges = []
        for (i, (x, s)), (j, (y, t)) in itertools.combinations(enumerate(nodes), 2):
            if f.adj_masks[x] >> y & 1:
                flip = twist and (min(x, y), max(x, y)) == twisted
                if ((y in s) == (x in t)) != flip:
                    edges.append((i, j))
        return wl.Graph(len(nodes), edges)

    return graph(False), graph(True)
