"""The four standard graph products.

All four products share the vertex set V_G x V_H (ordered pairs, left
coordinate first). For distinct pairs (g, h) and (g', h') the adjacency
rules are:

* cartesian: g ~ g' and h = h', or g = g' and h ~ h'
* strong:    cartesian, or g ~ g' and h ~ h'
* direct:    g ~ g' and h ~ h'
* lex:       g ~ g', or g = g' and h ~ h'

So E(cartesian) is contained in E(strong), which is contained in E(lex),
and E(direct) is contained in E(strong). Edges that change exactly one
coordinate are called Cartesian edges; edges changing both are
non-Cartesian. The direct product has no Cartesian edges.

`product` writes each kind's edges as index pairs straight from the
factors' index pairs, so its cost is proportional to the size of the
result, not to the square of its order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedKind
from .graphs import Graph

KINDS = ("cartesian", "strong", "direct", "lex")


@dataclass(frozen=True)
class ProductGraph:
    """A product together with its factors; `graph` holds the result."""

    kind: str
    left: Graph
    right: Graph
    graph: Graph


def product(g: Graph, h: Graph, kind: str) -> ProductGraph:
    """Build g * h for the requested kind, in time proportional to the output.

    Vertices are the pairs (x, y) in left-major order, (x, y) at index
    i_G(x) * n_H + i_H(y). Each vertex in turn gets the index pairs to its
    higher-index neighbours in ascending order: first (x, d) for the higher
    neighbours d of y (every kind but direct), then, for each higher
    neighbour b of x, the kind's partners in row b: (b, y) for cartesian,
    N_H(y) for direct, N_H(y) and y for strong, all of V_H for lex. The
    pair list therefore comes out canonical without a sort.
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown product kind {kind!r}; choose from {KINDS}")
    vertices = tuple((x, y) for x in g.vertices for y in h.vertices)
    nh = h.n
    # Columns are right-factor indices. along[j]: the higher columns joined
    # to column j within one row; across[j]: the columns of an adjacent
    # higher row joined to column j. Both ascending, since pairs are sorted.
    nbrs = h.neighbors
    if kind == "direct":
        along = [[] for _ in range(nh)]
    else:
        along = [[d for d in ds if d > j] for j, ds in enumerate(nbrs)]
    if kind == "cartesian":
        across = [[j] for j in range(nh)]
    elif kind == "direct":
        across = nbrs
    elif kind == "strong":
        across = [sorted((*ds, j)) for j, ds in enumerate(nbrs)]
    else:
        across = [list(range(nh))] * nh
    # rows_up[i]: the first index of each higher row adjacent to row i.
    rows_up: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.pairs:
        rows_up[a].append(b * nh)
    pairs = []
    for i, bases in enumerate(rows_up):
        row = i * nh
        for j in range(nh):
            u = row + j
            pairs.extend([(u, row + d) for d in along[j]])
            for base in bases:
                pairs.extend([(u, base + d) for d in across[j]])
    return ProductGraph(kind=kind, left=g, right=h, graph=Graph(vertices, tuple(pairs)))
