"""Well-behavedness deciders and the seven-way characterization suite."""

import json
from collections import Counter

import pytest

import bruteforce
from kmatch import wellbehaved
from kmatch.errors import InvalidK, InvariantViolation, UnsupportedKind
from kmatch.graphs import build_named
from kmatch.matchings import max_k_matching
from kmatch.products import product
from kmatch.wellbehaved import (
    CHECKERS,
    MEMO_SIZE,
    achievable_unmatched,
    cached_query,
    cached_row,
    check_ast,
    check_boxast,
    check_circledast,
    equivalence_suite,
)


def test_boxast_positive_and_negative_verdicts(named):
    assert check_boxast(named["k2"], named["p3"], "cartesian", 1).verdict is True
    # the star-triangle pair: the product has a perfect matching but no
    # factor pair multiplies out to zero unmatched vertices
    assert check_boxast(named["s3"], named["k3"], "cartesian", 1).verdict is False


def test_one_vertex_factor_is_always_well_behaved(named):
    for star in ("cartesian", "strong", "lex"):
        for k in (1, 2):
            assert check_boxast(named["k1"], named["c4"], star, k).verdict is True


def test_boxast_across_stars(named):
    assert check_boxast(named["p4"], named["p4"], "lex", 1).verdict is True
    assert check_boxast(named["c4"], named["c4"], "strong", 2).verdict is True


def test_circledast_verdicts(named):
    assert check_circledast(named["k2"], named["k3"], "strong", 1).verdict is True
    assert check_circledast(named["s3"], named["k3"], "strong", 1).verdict is False
    r = check_circledast(named["k3"], named["c4"], "strong", 4)
    assert r.verdict is True
    assert r.evidence["witness"]["condition"] == "M4"


def test_circledast_regime_witness_squares_with_the_oracle(named):
    r = check_circledast(named["k2"], named["p3"], "strong", 1)
    assert r.verdict is True
    w = r.evidence["witness"]
    assert w["u_g"] * w["u_h"] == r.evidence["product"]["unmatched"]


def test_ast_verdicts(named):
    assert check_ast(named["k2"], named["p3"], "direct", 1).verdict is True
    assert check_ast(named["k2"], named["k2"], "strong", 1).verdict is True
    # P_3 x P_3 splits into a 4-star and a 4-cycle: m_1 = 3, but the
    # diagonals of single factor edges only reach 2
    assert check_ast(named["p3"], named["p3"], "direct", 1).verdict is False
    assert check_ast(named["s3"], named["k3"], "direct", 1).verdict is False


def test_ast_tries_every_divisor_split(named):
    r = check_ast(named["k4"], named["k4"], "strong", 4)
    tried = {(row["k_g"], row["k_h"]) for row in r.evidence["splits"]}
    assert tried == {(1, 4), (2, 2), (4, 1)}


def test_star_validation():
    k2 = build_named("complete", 2)
    with pytest.raises(UnsupportedKind):
        check_boxast(k2, k2, "direct", 1)
    with pytest.raises(UnsupportedKind):
        check_circledast(k2, k2, "cartesian", 1)
    with pytest.raises(UnsupportedKind):
        equivalence_suite(k2, k2, "direct", 1)
    with pytest.raises(InvalidK):
        check_boxast(k2, k2, "cartesian", 0)


def test_checkers_table_is_complete():
    assert set(CHECKERS) == {"boxast", "ast", "circledast"}


def test_achievable_unmatched_counts(named):
    assert set(achievable_unmatched(named["p3"], 1)) == {1, 3}
    assert set(achievable_unmatched(named["k3"], 2)) == {0, 3}
    assert set(achievable_unmatched(named["c4"], 1)) == {0, 2, 4}


def test_equivalence_suite_agrees_both_ways(named):
    positive = equivalence_suite(named["k2"], named["p3"], "cartesian", 1)
    assert positive.agree is True
    assert all(v is True for v in positive.conditions.values())

    negative = equivalence_suite(named["s3"], named["k3"], "cartesian", 1)
    assert negative.agree is True
    assert all(v is False for v in negative.conditions.values())


def test_equivalence_suite_numbers_match_the_oracle(named):
    eq = equivalence_suite(named["c4"], named["p3"], "strong", 1)
    p = product(named["c4"], named["p3"], "strong")
    rp = max_k_matching(p.graph, 1)
    assert eq.numbers["product"]["size"] == rp.size
    assert eq.numbers["product"]["unmatched"] == rp.unmatched
    assert eq.exhaustive


def test_implication_chain_on_samples(named):
    # lex well-behavedness forces strong, which forces cartesian
    pairs = [
        (named["k2"], named["p3"]),
        (named["p4"], named["c4"]),
        (named["s3"], named["k3"]),
        (named["k3"], named["c5"]),
    ]
    for g, h in pairs:
        for k in (1, 2):
            by_star = {
                star: check_boxast(g, h, star, k).verdict
                for star in ("cartesian", "strong", "lex")
            }
            assert not by_star["lex"] or by_star["strong"]
            assert not by_star["strong"] or by_star["cartesian"]


def test_budget_exhaustion_withholds_the_verdict(named):
    r = check_boxast(named["s3"], named["s3"], "lex", 3, budget=100)
    assert r.verdict is None
    assert not r.exhaustive
    eq = equivalence_suite(named["s3"], named["s3"], "lex", 3, budget=100)
    assert eq.agree is None
    assert all(v is None for v in eq.conditions.values())


def test_reports_serialize_to_json(named):
    for flavor, checker in CHECKERS.items():
        star = "strong"
        r = checker(named["k3"], named["p3"], star, 1)
        json.dumps(r.evidence)  # must not contain sets or tuple keys


def test_memo_keeps_its_modes_apart(named):
    # on K_2 x P_3 the size-only search reports another maximum than the
    # canonical witness, so a shared entry would leak into the evidence.
    g, h = named["k2"], named["p3"]
    p = product(g, h, "cartesian")
    canonical = list(max_k_matching(p.graph, 1).witness)
    assert list(max_k_matching(p.graph, 1, witness=False).witness) != canonical
    cached_query.cache_clear()
    equivalence_suite(g, h, "cartesian", 1)
    r = check_boxast(g, h, "cartesian", 1)
    assert r.evidence["product"]["witness"] == canonical


def test_memo_is_bounded_and_clears(named):
    equivalence_suite(named["k2"], named["p3"], "cartesian", 1)
    for memo in (cached_query, cached_row):
        assert memo.cache_info().maxsize == MEMO_SIZE
        assert memo.cache_info().currsize > 0
        memo.cache_clear()
        assert memo.cache_info().currsize == 0


STARS = ("cartesian", "strong", "lex")


def clear_memos():
    cached_row.cache_clear()
    cached_query.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty memos before the test and after it, so that rows built with
    a patched edge rule stay inside the test."""
    clear_memos()
    yield
    clear_memos()


def test_a_row_builds_each_product_and_pair_set_once(monkeypatch, small_corpus, fresh_memos):
    # every row of the corpus, each star asked twice: a cell builds its
    # product once, and the row builds each pair's set once per
    # orientation for its three cells (the factor witnesses' set, built
    # as the seed of the first product query, included).
    builds, parts = Counter(), Counter()

    def spy_product(g, h, kind):
        builds[g, h, kind] += 1
        return product(g, h, kind)

    def spy_parts(p, form_g, form_h, orientation):
        parts[str(form_g), str(form_h), orientation] += 1
        return real_parts(p, form_g, form_h, orientation)

    real_parts = wellbehaved.boxast_parts
    monkeypatch.setattr(wellbehaved, "product", spy_product)
    monkeypatch.setattr(wellbehaved, "boxast_parts", spy_parts)
    complete = 0
    for _, g in small_corpus:
        for _, h in small_corpus:
            for k in (1, 2, 3):
                reps = [equivalence_suite(g, h, star, k) for star in STARS * 2]
                assert reps[:3] == reps[3:]
                assert builds == Counter({(g, h, star): 1 for star in STARS})
                for orientation in ("gh", "hg"):
                    if any(rep.conditions[f"all-max-pairs-{orientation}"] for rep in reps):
                        # a cell that holds the condition reached every pair
                        pairs = [m for m in parts if m[2] == orientation]
                        count = len(wellbehaved._maximum_k_matchings(g, k))
                        assert len(pairs) == count * len(wellbehaved._maximum_k_matchings(h, k))
                        complete += 1
                assert max(parts.values(), default=1) == 1
                builds.clear()
                parts.clear()
    assert complete > 100


def test_reports_do_not_depend_on_the_order_of_the_cells(small_corpus):
    # a strong or lex cell asked after the cells below it is seeded from
    # their answers, and asked alone from the factor witnesses' boxast.
    rows = [(g, h, k) for _, g in small_corpus for _, h in small_corpus for k in (1, 2, 3)]
    clear_memos()
    upward = [[equivalence_suite(*row[:2], star, row[2]) for star in STARS] for row in rows]
    clear_memos()
    downward = [[equivalence_suite(*row[:2], star, row[2]) for star in reversed(STARS)][::-1]
                for row in rows]
    lone = []
    for row in rows:
        cells = []
        for star in STARS:
            clear_memos()
            cells.append(equivalence_suite(*row[:2], star, row[2]))
        lone.append(cells)
    assert upward == downward == lone


@pytest.mark.parametrize("bad", ["gh", "hg"])
def test_an_edge_rule_that_leaves_the_product_raises_in_every_star(
    monkeypatch, named, bad, fresh_memos
):
    # in the product of two 3-paths, vertices 0 = (0, 0) and 8 = (2, 2)
    # are adjacent in no star. Broken in gh, the rule breaks the seed of
    # the first product query; broken in hg, only the hg pair sets.
    real_parts = wellbehaved.boxast_parts

    def leaky(p, form_g, form_h, orientation):
        copies, fill = real_parts(p, form_g, form_h, orientation)
        return copies, fill + [(0, 8)] if orientation == bad else fill

    monkeypatch.setattr(wellbehaved, "boxast_parts", leaky)
    p3 = named["p3"]
    for order in (STARS, *([star] for star in STARS)):
        clear_memos()
        for star in order:
            with pytest.raises(InvariantViolation):
                equivalence_suite(p3, p3, star, 1)


def test_all_max_pairs_equals_the_public_route(small_corpus):
    # conditions 2 and 3 run the boxast edge rule in index space; the
    # reference builds every pair through the public boxast and validates
    # it with degree_profile.
    def maxima(g, k):
        best = bruteforce.maximum_size(g.vertices, g.edges, k)
        return [m for m in bruteforce.all_k_matchings(g.vertices, g.edges, k) if len(m) == best]

    cells, outcomes = 0, set()
    for _, g in small_corpus:
        for _, h in small_corpus:
            for k in (1, 2, 3):
                max_g, max_h = maxima(g, k), maxima(h, k)
                for star in ("cartesian", "strong", "lex"):
                    rep = equivalence_suite(g, h, star, k)
                    assert rep.exhaustive
                    p = product(g, h, star)
                    size = rep.numbers["product"]["size"]
                    for orientation in ("gh", "hg"):
                        want = bruteforce.all_max_pairs(p, max_g, max_h, k, size, orientation)
                        assert rep.conditions[f"all-max-pairs-{orientation}"] is want
                        outcomes.add(want)
                    cells += 1
    assert cells == 900 and outcomes == {True, False}
