"""The four standard graph products and their structure maps.

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
non-Cartesian. Layers (the copies of one factor obtained by freezing the
other coordinate) exist for the cartesian, strong, and lex kinds; the
direct product has no layers because it has no Cartesian edges.

`product` builds each kind from the factor adjacency lists, so its cost
is proportional to the size of the result, not to the square of its
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ItemNotInProduct, UnknownAnchor, UnsupportedKind
from .graphs import Edge, Graph, Vertex

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

    Vertices are the pairs (x, y) in left-major order, which fixes the
    canonical edge order of the result. Each vertex (x, y) emits its
    higher-index neighbours in ascending index order straight from the
    factor adjacency lists: first (x, d) for the higher neighbours d of y
    (every kind but direct), then, for each higher neighbour b of x, the
    kind's partners in row b: (b, y) for cartesian, N_H(y) for direct,
    N_H(y) and y for strong, all of V_H for lex. The edge list therefore
    comes out canonical without a sort.
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown product kind {kind!r}; choose from {KINDS}")
    vertices = tuple((x, y) for x in g.vertices for y in h.vertices)
    nh = h.n
    gidx, hidx = g.index, h.index
    # Columns are right-factor indices. along[j]: the higher columns joined
    # to column j within one row; across[j]: the columns of an adjacent
    # higher row joined to column j. Both ascending.
    nbrs = [[hidx[d] for d in h.adjacency[y]] for y in h.vertices]
    if kind == "direct":
        along = [[] for _ in range(nh)]
    else:
        along = [[d for d in ds if d > j] for j, ds in enumerate(nbrs)]
    if kind == "cartesian":
        across = [[j] for j in range(nh)]
    elif kind == "direct":
        across = nbrs
    elif kind == "strong":
        across = [sorted(ds + [j]) for j, ds in enumerate(nbrs)]
    else:
        across = [list(range(nh))] * nh
    edges = []
    for i, x in enumerate(g.vertices):
        row = i * nh
        rows_up = [gidx[b] * nh for b in g.adjacency[x] if gidx[b] > i]
        for j in range(nh):
            u = vertices[row + j]
            edges.extend([(u, vertices[row + d]) for d in along[j]])
            for base in rows_up:
                edges.extend([(u, vertices[base + d]) for d in across[j]])
    return ProductGraph(kind=kind, left=g, right=h, graph=Graph(vertices, tuple(edges)))


def project(p: ProductGraph, side: str, item) -> tuple[str, object]:
    """Project a product vertex or edge onto one factor.

    Returns a tagged pair: ("vertex", v) for a vertex, and for an edge
    either ("edge", e) when the endpoints separate on that side or
    ("collapsed", v) when the edge shrinks to the single vertex v.
    """
    assert side in ("left", "right")
    coord = 0 if side == "left" else 1
    factor = p.left if side == "left" else p.right
    if isinstance(item, tuple) and len(item) == 2 and p.graph.has_vertex(item):
        return ("vertex", item[coord])
    try:
        x, y = item
    except (TypeError, ValueError):
        raise ItemNotInProduct(f"{item!r} is neither a product vertex nor an edge")
    e = p.graph.edge_between(x, y)
    if e is None:
        raise ItemNotInProduct(f"{item!r} is neither a product vertex nor an edge")
    a, b = e[0][coord], e[1][coord]
    if a == b:
        return ("collapsed", a)
    fe = factor.edge_between(a, b)
    assert fe is not None, "product edge projects outside the factor"
    return ("edge", fe)


def layer(p: ProductGraph, side: str, anchor: Vertex) -> Graph:
    """The copy of one factor through a fixed vertex of the other.

    side="left" gives the left-factor layer at a right vertex (all pairs
    (x, anchor)); side="right" the right-factor layer at a left vertex.
    Undefined for the direct product.
    """
    assert side in ("left", "right")
    if p.kind == "direct":
        raise UnsupportedKind("the direct product has no layers")
    if side == "left":
        if not p.right.has_vertex(anchor):
            raise UnknownAnchor(f"{anchor!r} is not a vertex of the right factor")
        keep = [(x, anchor) for x in p.left.vertices]
    else:
        if not p.left.has_vertex(anchor):
            raise UnknownAnchor(f"{anchor!r} is not a vertex of the left factor")
        keep = [(anchor, y) for y in p.right.vertices]
    return p.graph.induced(keep)


def classify_edge(p: ProductGraph, e: tuple[Vertex, Vertex]) -> str:
    """"cartesian" if exactly one coordinate changes, else "non_cartesian"."""
    try:
        x, y = e
    except (TypeError, ValueError):
        raise ItemNotInProduct(f"{e!r} is not a product edge")
    ce = p.graph.edge_between(x, y)
    if ce is None:
        raise ItemNotInProduct(f"{e!r} is not a product edge")
    (a, c), (b, d) = ce
    # both coordinates equal would be a loop, which simple graphs exclude.
    assert a != b or c != d
    return "cartesian" if (a == b or c == d) else "non_cartesian"


def product_edge(p: ProductGraph, u: Vertex, v: Vertex) -> Edge:
    """Canonical product edge {u, v}; raises if absent."""
    e = p.graph.edge_between(u, v)
    if e is None:
        raise ItemNotInProduct(f"({u!r}, {v!r}) is not an edge of the product")
    return e
