"""The three product-matching constructions and their characterizations."""

import os
import subprocess
import sys

import pytest

import kmatch
from kmatch.constructions import ast, boxast, circledast
from kmatch.errors import EdgeNotInFactor, IncompatibleProduct, InvalidParameter
from kmatch.graphs import build_named
from kmatch.matchings import (
    degree_profile,
    enumerate_k_matchings,
    validate_k_matching,
)
from kmatch.products import product


def verdict_matches(p, result):
    """Direct validation of a built set against its prediction."""
    cls = result.classification
    if cls.is_k_matching:
        ok, degrees = validate_k_matching(p.graph, result.edges, cls.k)
        assert (result.profile.uniform in (0, cls.k)) == ok
        assert result.profile.degrees == degrees
        return ok
    return degree_profile(p.graph, result.edges).uniform is None


def test_boxast_perfect_primary_worked_example():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    r = boxast(p, [(0, 1)], [(0, 1)])
    assert r.classification.condition == "perfect-primary"
    assert r.classification.k == 1
    # one copy of the K_2 edge in each of the three layers, nothing to fill
    assert len(r.parts["layer_copies"]) == 3
    assert r.parts["unmatched_fill"] == ()
    assert len(r.edges) == 3
    ok, deg = validate_k_matching(p.graph, r.edges, 1)
    assert ok and all(d == 1 for d in deg.values())


def test_boxast_fill_covers_unmatched_columns():
    p3, k2 = build_named("path", 3), build_named("complete", 2)
    p = product(p3, k2, "cartesian")
    r = boxast(p, [(0, 1)], [(0, 1)])  # primary leaves vertex 2 open
    assert r.classification.condition == "both-matchings"
    assert len(r.parts["layer_copies"]) == 2
    assert len(r.parts["unmatched_fill"]) == 1
    assert r.parts["unmatched_fill"][0] == ((2, 0), (2, 1))
    assert verdict_matches(p, r)


def test_boxast_unmatched_pairs_need_both_coordinates_open():
    p3, k2 = build_named("path", 3), build_named("complete", 2)
    p = product(p3, k2, "cartesian")
    r = boxast(p, [(0, 1)], [])  # secondary empty: column over 2 stays open
    open_pairs = set(degree_profile(p.graph, r.edges).unmatched)
    want = {(g, h) for g in degree_profile(p3, [(0, 1)]).unmatched for h in k2.vertices}
    assert open_pairs == want


def test_boxast_orientations_agree_on_size():
    p3, p4 = build_named("path", 3), build_named("path", 4)
    p = product(p3, p4, "strong")
    m_g, m_h = [(0, 1)], [(0, 1), (2, 3)]
    gh = boxast(p, m_g, m_h, orientation="gh")
    hg = boxast(p, m_g, m_h, orientation="hg")
    assert gh.classification.is_k_matching and hg.classification.is_k_matching
    assert len(gh.edges) == len(hg.edges) == gh.predicted_size


def test_boxast_rejects_direct_product_and_bad_orientation():
    k2 = build_named("complete", 2)
    direct = product(k2, k2, "direct")
    with pytest.raises(IncompatibleProduct):
        boxast(direct, [], [])
    cart = product(k2, k2, "cartesian")
    with pytest.raises(InvalidParameter):
        boxast(cart, [], [], orientation="sideways")


def test_factor_edges_are_checked():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "cartesian")
    with pytest.raises(EdgeNotInFactor):
        boxast(p, [(0, 2)], [])
    with pytest.raises(EdgeNotInFactor):
        ast(product(k2, p3, "direct"), [(0, 1)], [(0, 2)])


def test_ast_diagonals_worked_example():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "direct")
    r = ast(p, [(0, 1)], [(0, 1)])
    assert r.edges == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    assert r.classification.condition == "factored"
    assert r.classification.k == 1 and r.classification.factor_ks == (1, 1)
    assert verdict_matches(p, r)


def test_ast_size_is_twice_the_product_of_sizes():
    c4, k4 = build_named("cycle", 4), build_named("complete", 4)
    p = product(c4, k4, "strong")
    for m_g in enumerate_k_matchings(c4, 1):
        for m_h in enumerate_k_matchings(k4, 2):
            r = ast(p, m_g, m_h)
            assert len(r.edges) == 2 * len(m_g) * len(m_h)
            assert verdict_matches(p, r)


def test_ast_degree_multiplies():
    k3, k4 = build_named("complete", 3), build_named("complete", 4)
    p = product(k3, k4, "strong")
    r = ast(p, k3.edges, k4.edges)  # 2-matching times 3-matching
    assert r.classification.factor_ks == (2, 3)
    assert r.classification.k == 6
    deg = degree_profile(p.graph, r.edges).degrees
    assert set(deg.values()) == {6}


def test_ast_empty_side_swallows_an_invalid_other_side():
    p3, p4 = build_named("path", 3), build_named("path", 4)
    p = product(p3, p4, "direct")
    r = ast(p, [(0, 1), (1, 2)], [])  # left side is not a matching at all
    assert r.edges == ()
    assert r.classification.is_k_matching
    assert r.classification.condition == "none"
    assert r.predicted_size == 0


def test_circledast_regime_m1a_worked_example():
    k2, p3 = build_named("complete", 2), build_named("path", 3)
    p = product(k2, p3, "strong")
    r = circledast(p, [(0, 1)], [(0, 1)])
    assert r.classification.condition == "M1.a"
    assert len(r.parts["diagonals"]) == 2
    assert r.parts["left_fill"] == ()
    assert len(r.parts["right_fill"]) == 1  # P_3 vertex 2 is open
    assert verdict_matches(p, r)
    assert len(r.edges) == r.predicted_size


def test_circledast_regimes_cover_the_grid():
    k3, c4 = build_named("complete", 3), build_named("cycle", 4)
    p = product(k3, c4, "strong")
    cases = [
        (k3.edges, [(0, 1)], "M1.a"),  # perfect 2-matching with a 1-matching
        (k3.edges, [], "M1.b"),
        ([(0, 1)], c4.edges, "M2.a"),  # 1-matching with a perfect 2-matching
        ([], c4.edges, "M2.b"),
        ([(0, 1)], [(0, 1)], "M3"),  # two near-perfect 1-matchings
        ([], [], "M3"),
        (k3.edges, c4.edges, "M4"),
    ]
    for m_g, m_h, regime in cases:
        r = circledast(p, m_g, m_h)
        assert r.classification.condition == regime, (m_g, m_h)
        assert verdict_matches(p, r), regime
        assert len(r.edges) == r.predicted_size, regime


def test_circledast_m4_multiplies_degrees():
    k3, c4 = build_named("complete", 3), build_named("cycle", 4)
    p = product(k3, c4, "strong")
    r = circledast(p, k3.edges, c4.edges)
    assert r.classification.k == 4
    deg = degree_profile(p.graph, r.edges).degrees
    assert set(deg.values()) == {4}
    assert len(r.edges) == 4 * 12 // 2  # k(n_G n_H - u_G u_H)/2 with u = 0


def test_circledast_unmatched_pairs_need_both_coordinates_open():
    p3, p4 = build_named("path", 3), build_named("path", 4)
    p = product(p3, p4, "strong")
    m_g, m_h = [(0, 1)], [(1, 2)]
    r = circledast(p, m_g, m_h)
    open_pairs = set(degree_profile(p.graph, r.edges).unmatched)
    want = {
        (g, h)
        for g in degree_profile(p3, m_g).unmatched
        for h in degree_profile(p4, m_h).unmatched
    }
    assert open_pairs == want


def test_circledast_rejects_cartesian_and_direct():
    k2 = build_named("complete", 2)
    for kind in ("cartesian", "direct"):
        with pytest.raises(IncompatibleProduct):
            circledast(product(k2, k2, kind), [], [])


def test_parts_partition_the_edge_set():
    p3, c4 = build_named("path", 3), build_named("cycle", 4)
    p = product(p3, c4, "strong")
    for builder, m_g, m_h in [
        (boxast, [(0, 1)], [(0, 1), (2, 3)]),
        (circledast, [(0, 1)], [(0, 1)]),
        (ast, [(0, 1)], [(1, 2)]),
    ]:
        r = builder(p, m_g, m_h)
        pieces = [set(part) for part in r.parts.values()]
        assert set(r.edges) == set().union(*pieces)
        assert sum(len(piece) for piece in pieces) == len(r.edges)


def test_boxast_uses_cartesian_edges_only_and_ast_the_others():
    p3, c4 = build_named("path", 3), build_named("cycle", 4)
    p = product(p3, c4, "strong")
    r = boxast(p, [(0, 1)], [(0, 1), (2, 3)])
    assert r.edges and all((a == b) != (c == d) for (a, c), (b, d) in r.edges)
    r = ast(p, [(0, 1)], [(0, 1)])
    assert r.edges and all(a != b and c != d for (a, c), (b, d) in r.edges)


def test_prediction_equals_validation_on_small_pairs(small_corpus):
    # a quick slice of the acceptance sweep: every 1- and 2-matching pair
    # on the three-vertex-and-under corpus, every compatible kind
    tiny = [(name, g) for name, g in small_corpus if g.n <= 3]
    pool = {}
    for name, g in tiny:
        seen = {}
        for k in (1, 2, 3):
            for m in enumerate_k_matchings(g, k):
                seen.setdefault(frozenset(m), m)
        pool[name] = list(seen.values())
    kinds = {"boxast": ("cartesian", "strong", "lex"), "ast": ("strong", "direct", "lex"),
             "circledast": ("strong", "lex")}
    builders = {"boxast": boxast, "ast": ast, "circledast": circledast}
    for gname, g in tiny:
        for hname, h in tiny:
            for kindname, stars in kinds.items():
                for star in stars:
                    p = product(g, h, star)
                    for m_g in pool[gname]:
                        for m_h in pool[hname]:
                            r = builders[kindname](p, m_g, m_h)
                            assert verdict_matches(p, r), (gname, hname, kindname, star)


def test_predicted_size_for_invalid_construction_is_none():
    p3 = build_named("path", 3)
    p = product(p3, p3, "strong")
    r = boxast(p, [(0, 1)], [(0, 1), (1, 2)])  # secondary not a matching
    assert not r.classification.is_k_matching
    assert r.predicted_size is None


# K2 cartesian P2 is the 4-cycle 0-1-3-2 in index space. The bad sets are
# a diagonal, which is no product edge, a repeated pair, and two positive
# degrees (vertex 0 at 2, vertices 1 and 2 at 1).
CHECKED_DEGREES_PROBE = """
from kmatch.constructions import checked_degrees
from kmatch.errors import InvariantViolation
from kmatch.graphs import build_named
from kmatch.products import product

p = product(build_named("complete", 2), build_named("path", 2), "cartesian")
members = set(p.graph.pairs)
assert members == {(0, 1), (0, 2), (1, 3), (2, 3)}, members
for keys in ([(0, 1), (0, 3)], [(0, 1), (2, 3), (0, 1)]):
    try:
        checked_degrees(p.graph.n, members, keys)
    except InvariantViolation:
        pass
    else:
        raise SystemExit(f"checked_degrees accepted {keys}")
if checked_degrees(p.graph.n, members, [(0, 1), (0, 2)]) != ([2, 1, 1, 0], None):
    raise SystemExit("two positive degrees were not refused")
if checked_degrees(p.graph.n, members, [(0, 1), (2, 3)]) != ([1, 1, 1, 1], 1):
    raise SystemExit("a perfect matching was refused")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_checked_degrees_refuses_bad_sets(flags):
    # the corpus never builds a bad set, so the acceptance suite never
    # reaches these branches; they must hold under -O as well.
    src = os.path.dirname(os.path.dirname(kmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHECKED_DEGREES_PROBE],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
