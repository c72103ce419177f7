"""Structural facts about the constructions at k = 1.

The headline items: layered and diagonal-with-fill constructions stay
maximal over maximal factor matchings on the star products, while the
bare diagonal construction does NOT stay maximal on the direct product
(a crosswise pair of factor edges can leave two adjacent product
vertices uncovered). The non-maximality case is pinned as a regression
with an explicit extension edge.
"""

from itertools import product as iproduct

import pytest

from kmatch.constructions import ast, boxast, circledast
from kmatch.corpus import connected_graphs_upto, corpus_names
from kmatch.graphs import build_named
from kmatch.matchings import (
    classify_matching,
    degree_profile,
    enumerate_k_matchings,
    max_k_matching,
)
from kmatch.products import product
from kmatch.wellbehaved import check_ast, check_circledast


def maximal_ones(g):
    return [
        m
        for m in enumerate_k_matchings(g, 1)
        if classify_matching(g, m, 1).maximal
    ]


def is_valid_one(result):
    cls = result.classification
    return bool(cls.is_k_matching and cls.k == 1)


def is_max_one(p, result, m1):
    return is_valid_one(result) and len(result.edges) == m1


def is_perfect_one(p, result):
    return (
        degree_profile(p.graph, result.edges).uniform == 1
        and 2 * len(result.edges) == p.graph.n
    )


def factor_perfect(g, m):
    cls = classify_matching(g, m, 1)
    return bool(cls.valid and cls.perfect)


# maximality on the star products --------------------------------------------


def test_layered_fill_maximal_over_maximal_factor_matchings(named):
    pairs = [("p3", "k2"), ("s3", "p4"), ("c5", "k3")]
    for a, b in pairs:
        g, h = named[a], named[b]
        for star in ("cartesian", "strong", "lex"):
            p = product(g, h, star)
            for m_g, m_h in iproduct(maximal_ones(g), maximal_ones(h)):
                for orientation in ("gh", "hg"):
                    r = boxast(p, m_g, m_h, orientation=orientation)
                    assert is_valid_one(r), (a, b, star, orientation)
                    cls = classify_matching(p.graph, r.edges, 1)
                    assert cls.maximal is True, (a, b, star, orientation, m_g, m_h)


def test_diagonal_with_fill_maximal_on_strong_and_lex(named):
    pairs = [("p3", "p4"), ("k3", "c4"), ("c5", "s3")]
    for a, b in pairs:
        g, h = named[a], named[b]
        for star in ("strong", "lex"):
            p = product(g, h, star)
            for m_g, m_h in iproduct(maximal_ones(g), maximal_ones(h)):
                r = circledast(p, m_g, m_h)
                assert is_valid_one(r), (a, b, star)
                cls = classify_matching(p.graph, r.edges, 1)
                assert cls.maximal is True, (a, b, star, m_g, m_h)


def test_small_corpus_maximality_sweep():
    graphs = list(connected_graphs_upto(3))
    corpus = list(zip(corpus_names(graphs), graphs))
    for (gn, g), (hn, h) in iproduct(corpus, corpus):
        pool_g, pool_h = maximal_ones(g), maximal_ones(h)
        for star in ("cartesian", "strong", "lex"):
            p = product(g, h, star)
            for m_g, m_h in iproduct(pool_g, pool_h):
                for orientation in ("gh", "hg"):
                    r = boxast(p, m_g, m_h, orientation=orientation)
                    assert classify_matching(p.graph, r.edges, 1).maximal is True
                if star != "cartesian":
                    r = circledast(p, m_g, m_h)
                    assert classify_matching(p.graph, r.edges, 1).maximal is True


# the direct product is different --------------------------------------------


def test_crosswise_gap_breaks_maximality_on_direct(named):
    """Maximal factor matchings do NOT make the diagonals maximal here.

    On P3 x P3 with both factors matched along (0, 1), the vertex (1, 2)
    pairs a matched left coordinate with an unmatched right one and
    (2, 1) does the opposite; neither is covered by a diagonal, yet they
    are adjacent in the product. Pinned with the explicit extension.
    """
    p3 = named["p3"]
    m = ((0, 1),)
    assert classify_matching(p3, m, 1).maximal is True
    p = product(p3, p3, "direct")
    r = ast(p, m, m)
    assert r.edges == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    cls = classify_matching(p.graph, r.edges, 1)
    assert cls.valid and cls.maximal is False
    extension = ((1, 2), (2, 1))
    assert extension in set(p.graph.edges)
    covered = {v for e in r.edges for v in e}
    assert covered.isdisjoint(extension)
    grown = classify_matching(p.graph, r.edges + (extension,), 1)
    assert grown.valid and grown.size == cls.size + 1


def test_perfect_factor_restores_maximality_on_direct(named):
    c4_perfect = ((0, 1), (2, 3))
    samples = [
        ("k2", ((0, 1),), "p3", ((0, 1),)),
        ("k2", ((0, 1),), "k3", ((0, 1),)),
        ("c4", c4_perfect, "p3", ((1, 2),)),
        ("c4", c4_perfect, "s3", ((0, 1),)),
    ]
    for a, m_g, b, m_h in samples:
        g, h = named[a], named[b]
        assert factor_perfect(g, m_g)
        assert classify_matching(h, m_h, 1).maximal is True
        p = product(g, h, "direct")
        r = ast(p, m_g, m_h)
        assert classify_matching(p.graph, r.edges, 1).maximal is True, (a, b)


def test_direct_double_cover_diagonals_can_be_maximum(named):
    # K2 x P3 splits into two copies of P3, so the top value is 2 and the
    # two diagonals reach it even though P3 has no perfect matching.
    p = product(named["k2"], named["p3"], "direct")
    r = ast(p, ((0, 1),), ((0, 1),))
    top = max_k_matching(p.graph, 1, witness=False)
    assert top.size == 2
    assert len(r.edges) == 2


def test_direct_diagonals_maximal_yet_not_maximum(named):
    # K2 x K3 is a 6-cycle: the diagonals of single factor edges give a
    # maximal 1-matching of size 2, one short of the top value 3. A
    # perfect factor is no guarantee of a maximum on this product.
    p = product(named["k2"], named["k3"], "direct")
    r = ast(p, ((0, 1),), ((0, 1),))
    cls = classify_matching(p.graph, r.edges, 1)
    assert cls.size == 2 and cls.maximal is True
    assert max_k_matching(p.graph, 1, witness=False).size == 3


# the three-way equivalences on strong and lex products ----------------------


def test_diagonals_maximum_iff_both_factors_perfect(named):
    """Maximum diagonals, perfect diagonals, and two perfect factors
    coincide on strong and lex products of graphs with edges, for every
    choice of factor edge subsets (not only matchings)."""
    pairs = [("k2", "k2"), ("p3", "p3"), ("k2", "k3"), ("p4", "c4")]
    for a, b in pairs:
        g, h = named[a], named[b]
        subsets_g = list(enumerate_k_matchings(g, 1)) + [g.edges]
        subsets_h = list(enumerate_k_matchings(h, 1)) + [h.edges]
        for star in ("strong", "lex"):
            p = product(g, h, star)
            m1 = max_k_matching(p.graph, 1, witness=False).size
            for m_g, m_h in iproduct(subsets_g, subsets_h):
                r = ast(p, m_g, m_h)
                stmts = (
                    is_max_one(p, r, m1),
                    factor_perfect(g, m_g) and factor_perfect(h, m_h),
                    is_perfect_one(p, r),
                )
                assert len(set(stmts)) == 1, (a, b, star, m_g, m_h, stmts)


def test_top_construction_choice_is_immaterial(named):
    """Whichever of the three constructions reaches the top value, the
    other variants with an orientation do too (strong and lex only).

    Scope: pairs of 1-matchings. A perfect left matching against a
    non-matching edge set breaks the equivalence, because the layered
    construction normalizes the secondary away while the diagonal one
    multiplies degrees; that divergence is pinned below.
    """
    pairs = [("p3", "p3"), ("k2", "k3"), ("k3", "c4"), ("s3", "p4")]
    for a, b in pairs:
        g, h = named[a], named[b]
        ones_g = list(enumerate_k_matchings(g, 1))
        ones_h = list(enumerate_k_matchings(h, 1))
        for star in ("strong", "lex"):
            p = product(g, h, star)
            m1 = max_k_matching(p.graph, 1, witness=False).size
            for m_g, m_h in iproduct(ones_g, ones_h):
                stmts = (
                    is_max_one(p, circledast(p, m_g, m_h), m1),
                    is_max_one(p, boxast(p, m_g, m_h, orientation="gh"), m1),
                    is_max_one(p, boxast(p, m_g, m_h, orientation="hg"), m1),
                )
                assert len(set(stmts)) == 1, (a, b, star, m_g, m_h, stmts)
    # the divergent out-of-scope instance: perfect left matching, full
    # right edge set
    g, h = named["k2"], named["k3"]
    p = product(g, h, "strong")
    m_g, m_h = ((0, 1),), h.edges
    assert is_max_one(p, boxast(p, m_g, m_h, orientation="gh"), 3)
    assert circledast(p, m_g, m_h).classification.k == 2
    assert boxast(p, m_g, m_h, orientation="hg").classification.k == 2


def test_maximum_diagonals_force_perfect_companions(named):
    # forward direction on a perfect pair
    p = product(named["k2"], named["k2"], "strong")
    m = ((0, 1),)
    assert is_max_one(p, ast(p, m, m), 2)
    assert is_perfect_one(p, circledast(p, m, m))
    assert is_perfect_one(p, boxast(p, m, m))
    # the converse fails: on K2 strong K3 the filled diagonal construction
    # is perfect while the bare diagonals stop below the top value
    p = product(named["k2"], named["k3"], "strong")
    r_fill = circledast(p, m, m)
    assert is_perfect_one(p, r_fill) and len(r_fill.edges) == 3
    assert len(ast(p, m, m).edges) == 2
    assert max_k_matching(p.graph, 1, witness=False).size == 3


def test_diagonal_only_top_value_matches_ast_verdict(named):
    """The ast flavor of well-behavedness at k = 1 is the same thing as
    some fill-free circledast witness attaining the top value."""
    pairs = [("k2", "k2"), ("k2", "p3"), ("k2", "k3"), ("p3", "p3"), ("k3", "k3")]
    for a, b in pairs:
        g, h = named[a], named[b]
        for star in ("strong", "lex"):
            verdict = check_ast(g, h, star, 1).verdict
            assert verdict is not None
            p = product(g, h, star)
            m1 = max_k_matching(p.graph, 1, witness=False).size
            pure = False
            for m_g in enumerate_k_matchings(g, 1):
                for m_h in enumerate_k_matchings(h, 1):
                    r = circledast(p, m_g, m_h)
                    if not is_max_one(p, r, m1):
                        continue
                    if not r.parts["left_fill"] and not r.parts["right_fill"]:
                        pure = True
            assert verdict == pure, (a, b, star)
    # and the two flavors genuinely differ: K2 strong K3 is circledast-
    # but not ast-well-behaved
    k2, k3 = named["k2"], named["k3"]
    assert check_circledast(k2, k3, "strong", 1).verdict is True
    assert check_ast(k2, k3, "strong", 1).verdict is False
