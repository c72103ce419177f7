"""Weak-homomorphism preserving matchings of a product.

A product edge set M preserves the factor data (M_G, M_H) when every edge
of M projects, on each side, either onto a factor matching edge or onto a
single vertex. W_k(G*H, M_G, M_H) is the family of k-matchings with that
property; it always contains the empty set, and the boxast / circledast /
ast constructions land inside it whenever they are k-matchings.

Both projection conditions are applied literally on all four product
kinds, including the right projection of the lex product (which is not a
weak homomorphism of the ambient graphs; the membership rule does not
care).

Every W_k query is a plain k-matching query on the subgraph spanned by
the allowed edges: membership is a lookup in its edge set, and the
maximum and the bounded enumeration are `max_k_matching` and `enumerate_k_matchings` run
on `allowed_edges(...)`, built once per query. Its projections are read
off product indices with `divmod`; no label is read.
"""

from __future__ import annotations

from .errors import EdgeNotInFactor
from .graphs import Graph
from .matchings import edge_keys
from .products import ProductGraph


def allowed_edges(p: ProductGraph, m_g, m_h) -> Graph:
    """The product's vertices with only its preserving edges.

    On the direct product the result is exactly the diagonals of
    (m_g, m_h): both coordinates move on every edge, so both must be
    matched pairs.
    """
    mg = frozenset(edge_keys(p.left, m_g, EdgeNotInFactor))
    mh = frozenset(edge_keys(p.right, m_h, EdgeNotInFactor))
    # Index u is the factor pair divmod(u, n_H); along u < v only the right
    # coordinate can move down. A moving coordinate must project onto a
    # matched factor edge (on the lex product the right pair need not even
    # be adjacent in the factor; the edge is then simply not allowed).
    nh = p.right.n
    pairs = []
    for u, v in p.graph.pairs:
        a, c = divmod(u, nh)
        b, d = divmod(v, nh)
        if (a == b or (a, b) in mg) and (c == d or (c, d) in mh or (d, c) in mh):
            pairs.append((u, v))
    return Graph(p.graph.vertices, tuple(pairs))
