"""Weak-homomorphism-preserving matchings and their dominance properties."""

import pytest

from kmatch.constructions import ast, boxast, circledast
from kmatch.errors import EdgeNotInProduct, SizeLimitExceeded
from kmatch.graphs import build_named
from kmatch.matchings import enumerate_k_matchings, max_k_matching, maximum_k_matchings
from kmatch.products import product
from kmatch.weakhom import allowed_edges, is_whp


def test_membership_accepts_projections_into_the_matching():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    m_g, m_h = [(0, 1)], [(0, 1)]
    ok, bad = is_whp(p, [((0, 0), (1, 0))], m_g, m_h)  # collapses on the right
    assert ok and bad is None
    ok, bad = is_whp(p, [((0, 1), (0, 2))], m_g, m_h)  # projects to (1,2) not in m_h
    assert not ok and bad == ((0, 1), (0, 2))


def test_membership_requires_product_edges():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    with pytest.raises(EdgeNotInProduct):
        is_whp(p, [((0, 0), (1, 2))], [], [])


def test_constructions_stay_inside_their_universe():
    g, h = build_named("path", 4), build_named("cycle", 4)
    m_g, m_h = [(0, 1), (2, 3)], [(0, 1), (2, 3)]
    for star, builder in (("cartesian", boxast), ("strong", circledast)):
        p = product(g, h, star)
        r = builder(p, m_g, m_h)
        ok, bad = is_whp(p, r.edges, m_g, m_h)
        assert ok, (star, bad)
    p = product(g, h, "direct")
    r = ast(p, m_g, m_h)
    ok, _ = is_whp(p, r.edges, m_g, m_h)
    assert ok


def test_direct_universe_is_exactly_the_diagonals():
    g, h = build_named("cycle", 4), build_named("complete", 3)
    p = product(g, h, "direct")
    m_g, m_h = [(0, 1), (2, 3)], [(0, 2)]
    universe = allowed_edges(p, m_g, m_h)
    assert set(universe.edges) == set(ast(p, m_g, m_h).edges)


def test_every_direct_member_is_inside_the_diagonal_set():
    g, h = build_named("path", 4), build_named("complete", 3)
    p = product(g, h, "direct")
    for m_g in maximum_k_matchings(g, 1):
        for m_h in maximum_k_matchings(h, 1):
            diag = set(ast(p, m_g, m_h).edges)
            for member in enumerate_k_matchings(allowed_edges(p, m_g, m_h), 1):
                assert set(member) <= diag


def test_boxast_dominates_every_preserving_matching():
    g, h = build_named("path", 3), build_named("complete", 2)
    p = product(g, h, "cartesian")
    for m_g in maximum_k_matchings(g, 1):
        for m_h in maximum_k_matchings(h, 1):
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
    for m_g in maximum_k_matchings(g, 1):
        for m_h in maximum_k_matchings(h, 1):
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
    ok, _ = is_whp(p, rep.witness, [(0, 1)], [(0, 1)])
    assert ok
