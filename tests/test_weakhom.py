"""Weak-homomorphism-preserving matchings and their dominance properties."""

import pytest

import bruteforce
from kmatch.constructions import ast, boxast, circledast
from kmatch.errors import SizeLimitExceeded
from kmatch.graphs import build_named
from kmatch.matchings import enumerate_k_matchings, max_k_matching
from kmatch.products import KINDS, product
from kmatch.weakhom import allowed_edges
from kmatch.wellbehaved import _maximum_k_matchings


def test_membership_accepts_projections_into_the_matching():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    allowed = allowed_edges(p, [(0, 1)], [(0, 1)]).edge_set
    assert ((0, 0), (1, 0)) in allowed  # collapses on the right
    assert ((0, 1), (0, 2)) not in allowed  # projects to (1,2) not in m_h


def test_allowed_edges_follow_the_literal_projection_rule(small_corpus):
    graphs = [g for _, g in small_corpus]
    universes = lex_non_edges = 0
    for g in graphs:
        g_matchings = bruteforce.all_k_matchings(g.vertices, g.edges, 1)
        for h in graphs:
            h_matchings = bruteforce.all_k_matchings(h.vertices, h.edges, 1)
            for kind in KINDS:
                p = product(g, h, kind)
                if kind == "lex":
                    lex_non_edges += sum(
                        bruteforce.project(h.edges, c, d)[0] == "non_edge"
                        for (_, c), (_, d) in p.graph.edges
                    )
                for m_g in g_matchings:
                    for m_h in h_matchings:
                        expected = bruteforce.preserving_edges(
                            g.edges, h.edges, p.graph.edges, m_g, m_h
                        )
                        assert list(allowed_edges(p, m_g, m_h).edges) == expected
                        universes += 1
    assert universes == 10_000
    # the right side of a lex edge may join two non-adjacent factor vertices
    assert lex_non_edges > 0


def test_constructions_stay_inside_their_universe():
    g, h = build_named("path", 4), build_named("cycle", 4)
    m_g, m_h = [(0, 1), (2, 3)], [(0, 1), (2, 3)]
    for star, builder in (("cartesian", boxast), ("strong", circledast)):
        p = product(g, h, star)
        r = builder(p, m_g, m_h)
        assert set(r.edges) <= allowed_edges(p, m_g, m_h).edge_set, star
    p = product(g, h, "direct")
    r = ast(p, m_g, m_h)
    assert set(r.edges) <= allowed_edges(p, m_g, m_h).edge_set


def test_direct_universe_is_exactly_the_diagonals():
    g, h = build_named("cycle", 4), build_named("complete", 3)
    p = product(g, h, "direct")
    m_g, m_h = [(0, 1), (2, 3)], [(0, 2)]
    universe = allowed_edges(p, m_g, m_h)
    assert set(universe.edges) == set(ast(p, m_g, m_h).edges)


def test_every_direct_member_is_inside_the_diagonal_set():
    g, h = build_named("path", 4), build_named("complete", 3)
    p = product(g, h, "direct")
    for m_g in _maximum_k_matchings(g, 1):
        for m_h in _maximum_k_matchings(h, 1):
            diag = set(ast(p, m_g, m_h).edges)
            for member in enumerate_k_matchings(allowed_edges(p, m_g, m_h), 1):
                assert set(member) <= diag


def test_boxast_dominates_every_preserving_matching():
    g, h = build_named("path", 3), build_named("complete", 2)
    p = product(g, h, "cartesian")
    for m_g in _maximum_k_matchings(g, 1):
        for m_h in _maximum_k_matchings(h, 1):
            built = boxast(p, m_g, m_h)
            assert built.classification.is_k_matching
            best = max(
                (len(m) for m in enumerate_k_matchings(allowed_edges(p, m_g, m_h), 1)),
                default=0,
            )
            assert len(built.edges) == best


def test_circledast_dominates_on_the_strong_product():
    g, h = build_named("path", 3), build_named("complete", 2)
    p = product(g, h, "strong")
    for m_g in _maximum_k_matchings(g, 1):
        for m_h in _maximum_k_matchings(h, 1):
            built = circledast(p, m_g, m_h)
            assert built.classification.is_k_matching
            universe = allowed_edges(p, m_g, m_h)
            best = max(len(m) for m in enumerate_k_matchings(universe, 1))
            assert len(built.edges) == best


def test_preserving_maximum_can_fall_short_of_the_true_maximum():
    # the classic star-triangle pair: the product has a perfect matching
    # of size 6, but no preserving matching passes 5
    s3, k3 = build_named("star", 3), build_named("complete", 3)
    p = product(s3, k3, "cartesian")
    m_g = max_k_matching(s3, 1).witness
    m_h = max_k_matching(k3, 1).witness
    preserved = max_k_matching(allowed_edges(p, m_g, m_h), 1)
    assert preserved.exhaustive
    assert preserved.size == 5
    assert max_k_matching(p.graph, 1).size == 6


def test_enumeration_guard_on_big_universes():
    k4 = build_named("complete", 4)
    p = product(k4, k4, "strong")
    with pytest.raises(SizeLimitExceeded):
        enumerate_k_matchings(allowed_edges(p, k4.edges, k4.edges), 1)


def test_max_whp_reports_like_the_oracle():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    rep = max_k_matching(allowed_edges(p, [(0, 1)], [(0, 1)]), 1)
    assert rep.exhaustive and rep.size == 3 and rep.unmatched == 0
    preserving = bruteforce.preserving_edges(k2.edges, p3.edges, p.graph.edges, [(0, 1)], [(0, 1)])
    assert set(rep.witness) <= set(preserving)
