"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every expected value is an exact integer or boolean; there are no
tolerances anywhere. Criterion 8 pins an exact characterization of when
the diagonal construction of maximal factor 1-matchings is maximal on the
direct product (exactly when one factor matching is perfect), in both
directions, with the non-maximal family counted and kept non-empty.
"""

import subprocess
import sys
import time
from itertools import product as iproduct

import pytest

import bruteforce
from kmatch.constructions import ast, boxast, circledast
from kmatch.graphs import are_isomorphic_small, build_named, connected_components
from kmatch.matchings import (
    classify_matching,
    degree_profile,
    enumerate_k_matchings,
    max_k_matching,
    validate_k_matching,
)
from kmatch.products import product
from kmatch.scenarios import run_scenario
from kmatch.weakhom import allowed_edges
from kmatch.wellbehaved import equivalence_suite


def announce(capsys, line):
    with capsys.disabled():
        print(line)


def unmatched_count(g, m):
    deg = degree_profile(g, m).degrees
    return sum(1 for d in deg.values() if d == 0)


def verdict_matches(p, result):
    """Predicted classification against direct validation of the edges."""
    cls = result.classification
    if cls.is_k_matching:
        ok, _ = validate_k_matching(p.graph, result.edges, cls.k)
        return ok
    return degree_profile(p.graph, result.edges).uniform is None


def matching_pool(g):
    """Every set that is a k-matching for some k in 1..3, deduplicated."""
    pool = {}
    for k in (1, 2, 3):
        for m in enumerate_k_matchings(g, k):
            pool.setdefault(frozenset(m), m)
    return list(pool.values())


def maximal_ones(g):
    return [
        m
        for m in enumerate_k_matchings(g, 1)
        if classify_matching(g, m, 1).maximal
    ]


# criterion 1 -----------------------------------------------------------------


def test_criterion_01_size_identity(sweep_corpus, capsys):
    started = time.perf_counter()
    checked = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            for m in enumerate_k_matchings(g, k):
                u = unmatched_count(g, m)
                assert 2 * len(m) == k * (g.n - u), (name, k, m)
                assert (u == 0) == (2 * len(m) == k * g.n), (name, k, m)
                checked += 1
    elapsed = time.perf_counter() - started
    # the connected corpus up to 5 vertices carries exactly 537 k-matchings
    # over k in 1..3; guard against a silently truncated enumeration
    assert checked == 537
    assert elapsed < 30
    announce(
        capsys,
        f"criterion 01: PASS - size identity and perfection hold for "
        f"{checked} enumerated matchings on the 5-vertex corpus ({elapsed:.1f}s)",
    )


# criteria 2 and 3 share one sweep --------------------------------------------


@pytest.fixture(scope="module")
def characterization(small_corpus):
    """Build every construction over every enumerated matching pair.

    Returns verdict mismatches, size-formula failures, and the check
    counts backing criteria 2 and 3.
    """
    mismatches = []
    size_errors = []
    orientation_errors = []
    checks = 0
    size_checks = 0
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        prods = {kind: product(g, h, kind) for kind in ("cartesian", "strong", "lex", "direct")}
        pool_g = matching_pool(g)
        pool_h = matching_pool(h)
        for m_g, m_h in iproduct(pool_g, pool_h):
            u_g = unmatched_count(g, m_g)
            u_h = unmatched_count(h, m_h)
            for star in ("cartesian", "strong", "lex"):
                p = prods[star]
                built = {o: boxast(p, m_g, m_h, orientation=o) for o in ("gh", "hg")}
                for o, r in built.items():
                    checks += 1
                    if not verdict_matches(p, r):
                        mismatches.append((gn, hn, star, "boxast", o, m_g, m_h))
                        continue
                    cls = r.classification
                    if not cls.is_k_matching:
                        continue
                    # recorded (normalized) matchings drive the formulas
                    ug_r = unmatched_count(g, r.m_g)
                    uh_r = unmatched_count(h, r.m_h)
                    if o == "gh":
                        direct_form = len(r.m_g) * h.n + len(r.m_h) * ug_r
                    else:
                        direct_form = len(r.m_h) * g.n + len(r.m_g) * uh_r
                    closed_form = cls.k * (g.n * h.n - ug_r * uh_r)
                    size_checks += 1
                    if len(r.edges) != direct_form or 2 * len(r.edges) != closed_form:
                        size_errors.append((gn, hn, star, "boxast", o, m_g, m_h))
                cg, ch = built["gh"].classification, built["hg"].classification
                if cg.is_k_matching and ch.is_k_matching and cg.k == ch.k:
                    size_checks += 1
                    if len(built["gh"].edges) != len(built["hg"].edges):
                        orientation_errors.append((gn, hn, star, m_g, m_h))
            for star in ("strong", "lex", "direct"):
                p = prods[star]
                r = ast(p, m_g, m_h)
                checks += 1
                if not verdict_matches(p, r):
                    mismatches.append((gn, hn, star, "ast", "gh", m_g, m_h))
                    continue
                size_checks += 1
                if len(r.edges) != 2 * len(r.m_g) * len(r.m_h):
                    size_errors.append((gn, hn, star, "ast", "gh", m_g, m_h))
                cls = r.classification
                if cls.is_k_matching:
                    factored = cls.k * (g.n - u_g) * (h.n - u_h)
                    size_checks += 1
                    if 2 * len(r.edges) != factored:
                        size_errors.append((gn, hn, star, "ast-closed", "gh", m_g, m_h))
            for star in ("strong", "lex"):
                p = prods[star]
                r = circledast(p, m_g, m_h)
                checks += 1
                if not verdict_matches(p, r):
                    mismatches.append((gn, hn, star, "circledast", "gh", m_g, m_h))
                    continue
                cls = r.classification
                if cls.is_k_matching:
                    size_checks += 1
                    if 2 * len(r.edges) != cls.k * (g.n * h.n - u_g * u_h):
                        size_errors.append((gn, hn, star, "circledast", "gh", m_g, m_h))
    return {
        "checks": checks,
        "size_checks": size_checks,
        "mismatches": mismatches,
        "size_errors": size_errors,
        "orientation_errors": orientation_errors,
    }


def test_criterion_02_characterizations(characterization, capsys):
    assert characterization["checks"] > 30000
    assert characterization["mismatches"] == []
    announce(
        capsys,
        f"criterion 02: PASS - predicted and validated verdicts agree on "
        f"{characterization['checks']} construction instances, zero mismatches",
    )


def test_criterion_03_size_formulas(characterization, capsys):
    assert characterization["size_errors"] == []
    assert characterization["orientation_errors"] == []
    announce(
        capsys,
        f"criterion 03: PASS - {characterization['size_checks']} exact size "
        f"identities hold, orientations agree wherever both are defined",
    )


# criteria 4 and 5 share the sweep table --------------------------------------


@pytest.fixture(scope="module")
def wb_table(sweep_corpus):
    table = {}
    for (gn, g), (hn, h) in iproduct(sweep_corpus, sweep_corpus):
        for k in (1, 2, 3):
            for star in ("cartesian", "strong", "lex"):
                table[(gn, hn, k, star)] = equivalence_suite(g, h, star, k)
    return table


def test_criterion_04_seven_conditions_agree(wb_table, capsys):
    assert len(wb_table) == 31 * 31 * 3 * 3
    for key, rep in wb_table.items():
        assert rep.exhaustive, key
        assert len(rep.conditions) == 7, key
        values = set(rep.conditions.values())
        assert None not in values, key
        assert len(values) == 1, (key, rep.conditions)
        assert rep.agree is True, key
    announce(
        capsys,
        f"criterion 04: PASS - the seven conditions agree on all "
        f"{len(wb_table)} (pair, k, star) cells of the 5-vertex corpus",
    )


def test_criterion_05_star_implications(wb_table, sweep_corpus, capsys):
    cells = 0
    for (gn, _), (hn, _) in iproduct(sweep_corpus, sweep_corpus):
        for k in (1, 2, 3):
            wb = {
                star: wb_table[(gn, hn, k, star)].conditions["unmatched-product"]
                for star in ("cartesian", "strong", "lex")
            }
            assert not wb["lex"] or wb["strong"], (gn, hn, k, wb)
            assert not wb["strong"] or wb["cartesian"], (gn, hn, k, wb)
            cells += 1
    announce(
        capsys,
        f"criterion 05: PASS - lex implies strong implies cartesian "
        f"well-behavedness on all {cells} corpus cells",
    )


# criterion 6 -----------------------------------------------------------------


def test_criterion_06_worked_examples(capsys):
    s3k3 = run_scenario("s3k3-perfect")
    assert s3k3.passed, s3k3.checks
    assert s3k3.measured["left_max_size"] == 1
    assert s3k3.measured["right_max_size"] == 1
    assert s3k3.measured["product_max_size"] == 6
    assert s3k3.measured["product_perfect"] is True

    triple = run_scenario("triple-product")
    assert triple.passed, triple.checks
    assert triple.measured["grouped_left_wellbehaved"] is True
    assert triple.measured["grouped_right_wellbehaved"] is False
    assert triple.seconds < 60

    c6 = run_scenario("c6-direct")
    assert c6.passed, c6.checks
    assert c6.measured["construction_size"] == 2
    assert c6.measured["construction_maximal"] is True
    assert c6.measured["construction_maximum"] is False
    assert c6.measured["product_max_size"] == 3

    k2p3 = run_scenario("k2p3-direct")
    assert k2p3.passed, k2p3.checks
    assert k2p3.measured["construction_size"] == 2
    assert k2p3.measured["construction_maximum"] is True

    announce(
        capsys,
        "criterion 06: PASS - all four bundled worked examples "
        "self-validate with exact values",
    )


# criterion 7 -----------------------------------------------------------------


def test_criterion_07_dominance(small_corpus, capsys):
    """Full enumeration of the preserving family on small universes.

    Wherever the layered (resp. filled-diagonal) construction is a valid
    k-matching it must dominate every member; on the direct product every
    member must be a subset of the diagonals.
    """
    checked = skipped = 0
    violations = []
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        prods = {kind: product(g, h, kind) for kind in ("cartesian", "strong", "lex", "direct")}
        for k in (1, 2):
            pool_g = list(enumerate_k_matchings(g, k))
            pool_h = list(enumerate_k_matchings(h, k))
            for m_g, m_h in iproduct(pool_g, pool_h):
                for star, builder in (
                    ("cartesian", boxast),
                    ("strong", boxast),
                    ("lex", boxast),
                    ("strong", circledast),
                    ("lex", circledast),
                ):
                    p = prods[star]
                    r = builder(p, m_g, m_h)
                    cls = r.classification
                    if not (cls.is_k_matching and cls.k == k):
                        continue
                    universe = allowed_edges(p, m_g, m_h)
                    if len(universe.edges) > 16:
                        skipped += 1
                        continue
                    best = max(
                        (len(m) for m in enumerate_k_matchings(universe, k)),
                        default=0,
                    )
                    checked += 1
                    if len(r.edges) < best:
                        violations.append((gn, hn, star, builder.__name__, k, m_g, m_h))
                p = prods["direct"]
                universe = allowed_edges(p, m_g, m_h)
                if len(universe.edges) > 16:
                    skipped += 1
                    continue
                diagonal_set = set(ast(p, m_g, m_h).edges)
                for m in enumerate_k_matchings(universe, k):
                    if not set(m) <= diagonal_set:
                        violations.append((gn, hn, "direct", "ast", k, m_g, m_h))
                checked += 1
    assert checked > 15000
    assert violations == []
    announce(
        capsys,
        f"criterion 07: PASS - constructions dominate the preserving family "
        f"on {checked} fully enumerated universes ({skipped} skipped as too large)",
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_08_one_matching_maximality(small_corpus, capsys):
    """Maximality and equivalence statements at k = 1.

    The fourth clause is a two-way characterization on the direct
    product. A product vertex (x, y) is covered by the diagonals exactly
    when x is matched in m_g and y in m_h. The unmatched vertices of a
    maximal matching are independent, so an uncovered product edge
    (a, c)-(b, d) must be crosswise: a unmatched in G and d unmatched in
    H, or b and c likewise. On connected factors with edges such an edge
    exists exactly when neither factor matching is perfect. So the
    diagonals are maximal if and only if m_g or m_h is perfect; both
    cases must occur in the corpus.
    """
    pools = {gn: maximal_ones(g) for gn, g in small_corpus}
    ones = {gn: list(enumerate_k_matchings(g, 1)) for gn, g in small_corpus}

    # clause: layered and filled-diagonal outputs stay maximal
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        for star in ("cartesian", "strong", "lex"):
            p = product(g, h, star)
            for m_g, m_h in iproduct(pools[gn], pools[hn]):
                for orientation in ("gh", "hg"):
                    r = boxast(p, m_g, m_h, orientation=orientation)
                    assert classify_matching(p.graph, r.edges, 1).maximal is True, (
                        gn, hn, star, orientation, m_g, m_h)
                if star != "cartesian":
                    r = circledast(p, m_g, m_h)
                    assert classify_matching(p.graph, r.edges, 1).maximal is True, (
                        gn, hn, star, m_g, m_h)

    # clause: three-way equivalence for the bare diagonals on strong/lex
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        if g.m == 0 or h.m == 0:
            continue
        for star in ("strong", "lex"):
            p = product(g, h, star)
            m1 = max_k_matching(p.graph, 1, witness=False).size
            for m_g, m_h in iproduct(ones[gn], ones[hn]):
                r = ast(p, m_g, m_h)
                cls = r.classification
                valid_one = bool(cls.is_k_matching and cls.k == 1)
                stmts = (
                    valid_one and len(r.edges) == m1,
                    unmatched_count(g, m_g) == 0
                    and unmatched_count(h, m_h) == 0
                    and len(m_g) > 0
                    and len(m_h) > 0,
                    valid_one and 2 * len(r.edges) == p.graph.n,
                )
                assert len(set(stmts)) == 1, (gn, hn, star, m_g, m_h, stmts)

    # clause: whichever construction attains the top value, all do
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        if g.m == 0 or h.m == 0:
            continue
        for star in ("strong", "lex"):
            p = product(g, h, star)
            m1 = max_k_matching(p.graph, 1, witness=False).size

            def at_top(result):
                cls = result.classification
                return bool(
                    cls.is_k_matching and cls.k == 1 and len(result.edges) == m1
                )

            for m_g, m_h in iproduct(ones[gn], ones[hn]):
                stmts = (
                    at_top(circledast(p, m_g, m_h)),
                    at_top(boxast(p, m_g, m_h, orientation="gh")),
                    at_top(boxast(p, m_g, m_h, orientation="hg")),
                )
                assert len(set(stmts)) == 1, (gn, hn, star, m_g, m_h, stmts)

    # clause: on the direct product, the diagonals of maximal factor
    # matchings are maximal exactly when one factor matching is perfect;
    # otherwise every addable product edge is crosswise
    maximal_pairs = non_maximal_pairs = 0
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        if g.m == 0 or h.m == 0:
            continue
        p = product(g, h, "direct")
        for m_g, m_h in iproduct(pools[gn], pools[hn]):
            cls_g = classify_matching(g, m_g, 1)
            cls_h = classify_matching(h, m_h, 1)
            r = ast(p, m_g, m_h)
            maximal = classify_matching(p.graph, r.edges, 1).maximal
            if cls_g.perfect or cls_h.perfect:
                assert maximal is True, (gn, hn, m_g, m_h)
                maximal_pairs += 1
                continue
            assert maximal is False, (gn, hn, m_g, m_h)
            covered = {v for e in r.edges for v in e}
            addable = [e for e in p.graph.edges if covered.isdisjoint(e)]
            assert addable, (gn, hn, m_g, m_h)
            un_g, un_h = set(cls_g.unmatched), set(cls_h.unmatched)
            for (a, c), (b, d) in addable:
                crosswise = (a in un_g and d in un_h) or (b in un_g and c in un_h)
                assert crosswise, (gn, hn, m_g, m_h, ((a, c), (b, d)))
            non_maximal_pairs += 1
    assert maximal_pairs > 0 and non_maximal_pairs > 0
    announce(
        capsys,
        f"criterion 08: PASS - three maximality/equivalence clauses hold; on "
        f"the direct product {non_maximal_pairs} of "
        f"{maximal_pairs + non_maximal_pairs} pairs of maximal factor "
        f"1-matchings give non-maximal diagonals, exactly the "
        f"non-perfect x non-perfect ones, each with a crosswise addable edge",
    )


# criterion 9 -----------------------------------------------------------------


def test_criterion_09_double_cover(sweep_corpus, capsys):
    k2 = build_named("complete", 2)
    bipartite = [
        (name, g) for name, g in sweep_corpus if bruteforce.is_bipartite(g.vertices, g.edges)
    ]
    assert len(bipartite) == 11
    for name, g in bipartite:
        p = product(g, k2, "direct")
        components = connected_components(p.graph)
        assert len(components) == 2, name
        for comp in components:
            assert are_isomorphic_small(p.graph.induced(comp), g), name
        for k in (1, 2, 3):
            own = max_k_matching(g, k, witness=False)
            cover = max_k_matching(p.graph, k, witness=False)
            assert (own.size > 0) == (cover.size > 0), (name, k)
            assert cover.size == 2 * own.size, (name, k)
    announce(
        capsys,
        f"criterion 09: PASS - the double cover splits into two factor "
        f"copies with matching sizes doubling, for all {len(bipartite)} "
        f"bipartite corpus graphs",
    )


# criterion 10 ----------------------------------------------------------------


def run_entry(args):
    proc = subprocess.run(
        [sys.executable, "-m", "kmatch.cli", *args],
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    suite_args = ["suite", "--max-n", "3", "--k", "1,2"]
    first = run_entry(suite_args)
    second = run_entry(suite_args)
    assert first == second
    parallel = run_entry([*suite_args, "--workers", "2"])
    assert first == parallel

    graph = tmp_path / "c5.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    solve_args = ["solve", "--graph", str(graph), "--k", "2"]
    assert run_entry(solve_args) == run_entry(solve_args)
    announce(
        capsys,
        "criterion 10: PASS - suite and solve reports are byte-identical "
        "across repeated runs and worker counts",
    )
