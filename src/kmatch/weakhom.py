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
on `allowed_edges(...)`, built once per query.
"""

from __future__ import annotations

from .errors import EdgeNotInFactor
from .graphs import Graph
from .matchings import canonical_matching
from .products import ProductGraph


def allowed_edges(p: ProductGraph, m_g, m_h) -> Graph:
    """The product's vertices with only its preserving edges.

    On the direct product the result is exactly the diagonals of
    (m_g, m_h): both coordinates move on every edge, so both must be
    matched pairs.
    """
    mg = frozenset(canonical_matching(p.left, m_g, error=EdgeNotInFactor))
    mh = frozenset(canonical_matching(p.right, m_h, error=EdgeNotInFactor))
    # A moving coordinate must project onto a matched factor edge.  On the
    # lex product the right pair need not even be adjacent in the factor;
    # edge_between then returns None and the edge is simply not allowed.
    edges = []
    for e in p.graph.edges:
        (a, c), (b, d) = e
        if (a == b or p.left.edge_between(a, b) in mg) and (
            c == d or p.right.edge_between(c, d) in mh
        ):
            edges.append(e)
    return Graph(p.graph.vertices, tuple(edges))
