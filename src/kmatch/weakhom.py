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

Everything here reduces W_k queries to plain k-matching queries on the
subgraph spanned by the allowed edges: membership filters edges, the
maximum query runs the exact oracle on the allowed subgraph, and the
bounded enumeration walks it exhaustively.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EdgeNotInFactor, EdgeNotInProduct
from .graphs import Edge, Graph
from .matchings import (
    DEFAULT_NODE_BUDGET,
    OracleReport,
    canonical_matching,
    enumerate_k_matchings,
    max_k_matching,
)
from .products import ProductGraph


def is_whp(p: ProductGraph, m, m_g, m_h) -> tuple[bool, Edge | None]:
    """Does every edge of m project into the factor data?

    Returns (True, None) or (False, first offending edge) in canonical
    order.
    """
    allowed = allowed_edges(p, m_g, m_h).edge_set
    for e in canonical_matching(p.graph, m, error=EdgeNotInProduct):
        if e not in allowed:
            return False, e
    return True, None


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


def max_whp_k_matching(
    p: ProductGraph, m_g, m_h, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> OracleReport:
    """Exact maximum-size element of W_k(G*H, m_g, m_h)."""
    return max_k_matching(allowed_edges(p, m_g, m_h), k, budget=budget)


def enumerate_whp_k_matchings(p: ProductGraph, m_g, m_h, k: int) -> Iterator[tuple[Edge, ...]]:
    """All of W_k, only offered while the allowed universe stays within
    the enumeration bound; the size check runs at the call."""
    return enumerate_k_matchings(allowed_edges(p, m_g, m_h), k)
