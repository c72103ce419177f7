"""Oracle, enumerator, and classifier checks against independent references."""

import os
import subprocess
import sys
import types
from collections import Counter

import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import bruteforce
import kmatch
from kmatch.errors import EdgeNotInHost, InvalidK, InvariantViolation, SizeLimitExceeded
from kmatch.graphs import build_named, make_graph
from kmatch.corpus import connected_graphs
from kmatch import matchings
from kmatch.matchings import (
    _SEARCH_CAP,
    _SOLVE_EFFORT,
    _SizeProgram,
    _degree_order,
    _search_maximum,
    canonical_matching,
    classify_matching,
    degree_profile,
    enumerate_k_matchings,
    index_degrees,
    max_k_matching,
    validate_k_matching,
)
from kmatch.products import product
from kmatch.wellbehaved import _maximum_k_matchings


# frozen reference values, all recomputable by hand
FROZEN = [
    ("path", 3, 1, 1, 1),  # m_1(P_3) = 1, one vertex left over
    ("path", 4, 1, 2, 0),
    ("cycle", 5, 1, 2, 1),
    ("cycle", 6, 1, 3, 0),
    ("complete", 4, 1, 2, 0),
    ("complete", 4, 2, 4, 0),  # a 4-cycle inside K_4
    ("complete", 4, 3, 6, 0),  # K_4 itself
    ("cycle", 5, 2, 5, 0),
    ("path", 3, 2, 0, 3),  # no cycle, so no non-empty 2-matching
    ("star", 3, 1, 1, 2),
    ("complete", 3, 1, 1, 1),
    ("complete", 3, 2, 3, 0),
]


@pytest.mark.parametrize("family,n,k,size,unmatched", FROZEN)
def test_frozen_maximum_values(family, n, k, size, unmatched):
    g = build_named(family, n)
    rep = max_k_matching(g, k)
    assert rep.exhaustive
    assert (rep.size, rep.unmatched) == (size, unmatched)


def test_oracle_matches_bruteforce_on_small_corpus(small_corpus):
    for name, g in small_corpus:
        for k in (1, 2, 3):
            rep = max_k_matching(g, k)
            assert rep.exhaustive, (name, k)
            assert rep.size == bruteforce.maximum_size(g.vertices, g.edges, k), (name, k)
            index = {e: i for i, e in enumerate(g.edges)}
            got = tuple(sorted(index[e] for e in rep.witness))
            assert got == bruteforce.lex_min_maximum(g.vertices, g.edges, k), (name, k)
            ok, _ = validate_k_matching(g, rep.witness, k)
            assert ok
            slim = max_k_matching(g, k, witness=False)
            assert (slim.size, slim.unmatched) == (rep.size, rep.unmatched)


def test_oracle_matches_blossom_for_ordinary_matchings(sweep_corpus):
    nx = pytest.importorskip("networkx")
    for name, g in sweep_corpus:
        gx = nx.Graph()
        gx.add_nodes_from(g.vertices)
        gx.add_edges_from(g.edges)
        blossom = nx.algorithms.matching.max_weight_matching(gx, maxcardinality=True)
        assert max_k_matching(g, 1).size == len(blossom), name


def test_oracle_escalation_path_on_a_hard_product():
    # big enough that the plain search gives up in either edge order and
    # the optimizer finishes
    g = build_named("star", 3)
    p = product(g, g, "lex").graph
    rep = max_k_matching(p, 3)
    assert rep.exhaustive and rep.nodes > _SEARCH_CAP
    # recovering the canonical witness with one solve per probe spent
    # 444,001; propagation and the probe search leave few solves.
    assert rep.nodes < 150_000
    assert rep.size == 18 and rep.unmatched == 4
    ok, _ = validate_k_matching(p, rep.witness, 3)
    assert ok
    slim = max_k_matching(p, 3, witness=False)
    assert slim.exhaustive and slim.nodes > _SEARCH_CAP
    assert (slim.size, slim.unmatched) == (18, 4)
    ok, _ = validate_k_matching(p, slim.witness, 3)
    assert ok and len(slim.witness) == 18


def test_size_search_settles_a_product_the_canonical_order_cannot():
    # the path on four vertices as the corpus labels it (3-0-1-2). In the
    # canonical edge order the size search of its lex square gives up at
    # the cap; the degree order finds and proves the perfect 3-matching.
    path = make_graph(range(4), [(0, 1), (0, 3), (1, 2)])
    p = product(path, path, "lex").graph
    assert not _search_maximum(p, 3, _SEARCH_CAP).settled
    slim = max_k_matching(p, 3, witness=False)
    assert slim.exhaustive and slim.nodes <= _SEARCH_CAP
    assert (slim.size, slim.unmatched) == (24, 0)
    ok, _ = validate_k_matching(p, slim.witness, 3)
    assert ok and len(slim.witness) == 24


def test_size_search_agrees_with_the_integer_program():
    # every (left, right, kind, k) over the connected graphs on four
    # vertices: the degree-ordered search (escalating when it must) and a
    # direct solve of the integer program are independent routes to m_k.
    graphs = connected_graphs(4)
    cases = 0
    for g in graphs:
        for h in graphs:
            for kind in ("cartesian", "strong", "direct", "lex"):
                p = product(g, h, kind).graph
                for k in (1, 2, 3):
                    slim = max_k_matching(p, k, witness=False)
                    optimum, _ = _SizeProgram(p, k).solve({})
                    where = (g.edges, h.edges, kind, k)
                    assert slim.exhaustive, where
                    assert slim.size == optimum, where
                    ok, _ = validate_k_matching(p, slim.witness, k)
                    assert ok and len(slim.witness) == slim.size, where
                    cases += 1
    assert cases == 432


# the 5-cycle as the corpus labels it: in this labelling the degree-ordered
# search of its strong and lex squares gives up at the cap for k = 3.
CORPUS_C5 = make_graph(range(5), [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])


@pytest.mark.parametrize("kind", ["strong", "lex"])
def test_restarts_settle_odd_cycle_squares_without_the_program(monkeypatch, kind):
    # 25 vertices and k = 3: parity leaves a vertex unmatched, so at most
    # 36 edges. The relaxation bounds the size by 37 only; the search's
    # parity-corrected root bound says 36, and a restart finds 36.
    p = product(CORPUS_C5, CORPUS_C5, kind).graph
    first = _search_maximum(p, 3, _SEARCH_CAP, _degree_order(p, index_degrees(p.n, p.pairs)[0]))
    assert not first.settled and first.root_bound == 36
    assert _SizeProgram(p, 3).relax({})[0] == 37

    def refuse(self, fixed):
        raise AssertionError("the integer program ran")

    monkeypatch.setattr(_SizeProgram, "solve", refuse)
    slim = max_k_matching(p, 3, witness=False)
    assert slim.exhaustive and (slim.size, slim.unmatched) == (36, 1)
    ok, _ = validate_k_matching(p, slim.witness, 3)
    assert ok and len(slim.witness) == 36


def test_restart_stage_is_exact_and_keeps_to_the_budget(monkeypatch, small_corpus):
    # a 50-node search cap sends many size-only queries on to the
    # restarts, which must find only true maxima, prove only true gaps,
    # and stop where the budget does.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 50)
    restarts = []
    real_search = matchings._search_maximum

    def search_spy(g, k, cap, order=None, forced=(), target=None):
        out = real_search(g, k, cap, order, forced, target)
        if target is not None:  # a size-only query passes one to restarts only
            restarts.append(out)
        return out

    monkeypatch.setattr(matchings, "_search_maximum", search_spy)
    cases = [(name, g, k, bruteforce.maximum_size(g.vertices, g.edges, k))
             for name, g in small_corpus for k in (1, 2, 3)]
    graphs = connected_graphs(4)
    for g in graphs:
        for h in graphs:
            for kind in ("cartesian", "strong", "direct", "lex"):
                p = product(g, h, kind).graph
                for k in (1, 2, 3):
                    optimum, _ = _SizeProgram(p, k).solve({})
                    cases.append(((g.edges, h.edges, kind), p, k, optimum))
    outcomes = Counter()
    restarted = []
    for where, p, k, optimum in cases:
        restarts.clear()
        slim = max_k_matching(p, k, witness=False)
        assert slim.exhaustive and slim.size == optimum, (where, k)
        ok, _ = validate_k_matching(p, slim.witness, k)
        assert ok and len(slim.witness) == slim.size, (where, k)
        for out in restarts:
            outcomes["leaf" if out.best else "gap" if out.settled else "capped"] += 1
        if restarts:
            restarted.append((p, k, slim.nodes))
    assert outcomes["leaf"] and outcomes["gap"] and outcomes["capped"], outcomes

    # budgets that run out in the restarts or before the program that
    # follows them; the root search and relaxation fit in every one.
    start = 50 + _SOLVE_EFFORT + 1
    budgets = 0
    for p, k, full in restarted[:: max(1, len(restarted) // 8)]:
        for budget in range(start, full, max(1, (full - start) // 6)):
            rep = max_k_matching(p, k, budget=budget, witness=False)
            assert not rep.exhaustive and rep.nodes <= budget, (k, budget)
            ok, _ = validate_k_matching(p, rep.witness, k)
            assert ok and len(rep.witness) == rep.size, (k, budget)
            budgets += 1
    assert budgets >= 20


def test_budget_exhaustion_degrades_not_raises():
    g = build_named("star", 3)
    p = product(g, g, "lex").graph
    rep = max_k_matching(p, 3, budget=500)
    assert not rep.exhaustive
    assert rep.nodes > 0
    ok, _ = validate_k_matching(p, rep.witness, 3)
    assert ok  # the fallback is still a genuine 3-matching
    assert len(rep.witness) == rep.size <= 18


def record_optimizer_calls(monkeypatch):
    """Log each relaxation and integer-program call of the oracle as
    (method, fixed, answer)."""
    calls = []
    for name in ("relax", "solve"):

        def call(self, fixed, _name=name, _method=getattr(_SizeProgram, name)):
            out = _method(self, fixed)
            calls.append((_name, dict(fixed), out))
            return out

        monkeypatch.setattr(_SizeProgram, name, call)
    return calls


def test_budget_exhaustion_during_witness_recovery():
    # the search (4,000 nodes), the root relaxation and the optimum's
    # solve (10,000 each) fit in every budget here; each one runs out
    # somewhere in the recovery. The grid spans whatever the recovery
    # costs, so a cheaper recovery still leaves enough budgets inside it.
    g = build_named("star", 3)
    p = product(g, g, "lex").graph
    full = max_k_matching(p, 3)
    start = _SEARCH_CAP + 2 * _SOLVE_EFFORT
    budgets = range(start, full.nodes, max(1, (full.nodes - start) // 12))
    assert len(budgets) >= 10
    for budget in budgets:
        rep = max_k_matching(p, 3, budget=budget)
        assert not rep.exhaustive, budget
        assert rep.nodes <= budget, budget
        ok, _ = validate_k_matching(p, rep.witness, 3)
        assert ok and len(rep.witness) == rep.size == 18, budget


def test_a_capped_search_charges_at_most_its_cap(monkeypatch):
    g = build_named("star", 3)
    p = product(g, g, "lex").graph
    # the root search stops at its cap, which the budget sets
    assert max_k_matching(p, 3, budget=500).nodes == 500

    # replay the full query's charges up to its first probe search that
    # hits the cap, then give it a budget that runs out 100 nodes into it
    calls = record_optimizer_calls(monkeypatch)
    real_search = matchings._search_maximum

    def search_spy(g, k, cap, *rest):
        out = real_search(g, k, cap, *rest)
        calls.append(("search", cap, out))
        return out

    monkeypatch.setattr(matchings, "_search_maximum", search_spy)
    max_k_matching(p, 3)
    charged = searches = 0
    for method, cap, out in calls:
        if method != "search":
            charged += _SOLVE_EFFORT
            continue
        searches += 1
        if searches > 1 and not out.settled:
            break
        charged += min(out.nodes, cap)
    calls.clear()
    rep = max_k_matching(p, 3, budget=charged + 100)
    method, cap, out = calls[-1]
    assert len(calls) > 2 and method == "search" and cap == 100 and not out.settled
    assert not rep.exhaustive and rep.nodes == charged + 100


def test_relaxation_stage_settles_escalations_exactly(monkeypatch, small_corpus):
    # with a one-node search every query with edges escalates, and every
    # recovery probe that propagation leaves reaches the relaxation.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 1)
    calls = record_optimizer_calls(monkeypatch)
    seen = set()
    for name, g in small_corpus:
        for k in (1, 2, 3):
            optimum = bruteforce.maximum_size(g.vertices, g.edges, k)
            calls.clear()
            rep = max_k_matching(g, k)
            index = {e: i for i, e in enumerate(g.edges)}
            got = tuple(sorted(index[e] for e in rep.witness))
            assert rep.exhaustive and got == bruteforce.lex_min_maximum(g.vertices, g.edges, k)
            for method, fixed, out in calls:
                if method == "solve":
                    seen.add("integer program")
                elif not fixed:
                    seen.add("root point" if out[1] is not None else "root bound")
                elif out is not None and out[0] < optimum:
                    seen.add("probe dropped")
                elif out is not None and out[1] is not None:
                    assert len(out[1]) == optimum, (name, k)
                    seen.add("probe kept")
            slim = max_k_matching(g, k, witness=False)
            assert slim.exhaustive and slim.size == optimum, (name, k)
    assert {"root point", "probe dropped", "probe kept", "integer program"} <= seen


def lying_linprog(c, A_eq, b_eq, **kwargs):
    """A relaxation answer that claims an objective of 0 with all-zero
    duals and takes every column at 1."""
    return types.SimpleNamespace(
        status=0,
        fun=0.0,
        x=[1.0] * len(c),
        message="",
        eqlin=types.SimpleNamespace(marginals=[0.0] * len(b_eq)),
    )


def infeasible_linprog(*args, **kwargs):
    return types.SimpleNamespace(status=2, message="claimed infeasible")


@pytest.mark.parametrize("fake", [lying_linprog, infeasible_linprog], ids=lambda f: f.__name__)
def test_a_lying_relaxation_neither_drops_nor_keeps(monkeypatch, small_corpus, fake):
    # the lying objective is below every optimum here, but the bound
    # comes from the duals, and zero duals bound the size by the edge
    # count; the all-ones point is off the 0-or-k condition in every
    # probe. An infeasible claim decides nothing. So each probe falls
    # through to the integer program.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 1)
    monkeypatch.setattr(scipy.optimize, "linprog", fake)
    calls = record_optimizer_calls(monkeypatch)
    probes = 0
    for name, g in small_corpus:
        for k in (1, 2, 3):
            optimum = bruteforce.maximum_size(g.vertices, g.edges, k)
            calls.clear()
            rep = max_k_matching(g, k)
            index = {e: i for i, e in enumerate(g.edges)}
            got = tuple(sorted(index[e] for e in rep.witness))
            assert rep.exhaustive and got == bruteforce.lex_min_maximum(g.vertices, g.edges, k)
            for method, fixed, out in calls:
                if method == "relax" and out is not None:
                    bound, point = out
                    assert bound >= optimum, (name, k)
                    # the only point let through is a graph that is
                    # itself a k-matching, and so its own maximum
                    assert point is None or not fixed and len(point) == g.m == optimum, (name, k)
                probes += method == "relax" and bool(fixed)
            relaxed = sum(1 for method, fixed, _ in calls if method == "relax" and fixed)
            solved = sum(1 for method, fixed, _ in calls if method == "solve" and fixed)
            assert relaxed == solved, (name, k)
    assert probes > 0


@pytest.mark.parametrize("witness", [True, False], ids=["witness", "size-only"])
def test_a_root_solve_that_claims_infeasible_is_a_fault(monkeypatch, witness):
    # the empty matching is feasible, so the integer program at the root
    # always has an optimum; a solver that calls it infeasible is at fault.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 1)
    monkeypatch.setattr(scipy.optimize, "linprog", infeasible_linprog)
    monkeypatch.setattr(scipy.optimize, "milp", infeasible_linprog)  # the same status 2
    with pytest.raises(InvariantViolation):
        max_k_matching(build_named("cycle", 6), 1, witness=witness)


def test_probe_search_agrees_with_enumeration(sweep_corpus):
    # each probe of the witness recovery: keep the canonical witness's
    # edges before j, drop the others before j, add j, and ask whether a
    # maximum remains. Enumeration answers the same question directly.
    probes = kept = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            index = {e: i for i, e in enumerate(g.edges)}
            every = bruteforce.all_k_matchings(g.vertices, g.edges, k)
            optimum = max(len(m) for m in every)
            tops = [sorted(index[e] for e in m) for m in every if len(m) == optimum]
            canonical = min(tops)
            for j in range(g.m):
                before = [i for i in canonical if i < j]
                want = any(j in m and [i for i in m if i < j] == before for m in tops)
                out = _search_maximum(
                    g, k, _SEARCH_CAP, list(range(j + 1, g.m)), before + [j], optimum
                )
                assert out.settled, (name, k, j)
                assert (out.best is not None) == want, (name, k, j)
                if want:
                    assert out.best_size == len(out.best) == optimum, (name, k, j)
                    assert out.best[: len(before) + 1] == before + [j], (name, k, j)
                    ok, _ = validate_k_matching(g, [g.edges[i] for i in out.best], k)
                    assert ok, (name, k, j)
                probes += 1
                kept += want
    assert 0 < kept < probes


def test_probe_search_refuses_an_overfull_start():
    # two forced edges at one vertex exceed k = 1: no leaf, no node spent.
    g = build_named("path", 3)
    out = _search_maximum(g, 1, _SEARCH_CAP, [], [0, 1], 1)
    assert out.settled and out.best is None and out.nodes == 0


@st.composite
def ordered_connected_graphs(draw):
    """A connected graph on at most 7 vertices (a random spanning tree plus
    extra edges, at most 12 in all, so brute force stays cheap) and a
    random order of its edges."""
    n = draw(st.integers(2, 7))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=12 - len(tree))) if others else []
    g = make_graph(range(n), tree + extra)
    return g, draw(st.permutations(range(g.m)))


@given(ordered_connected_graphs(), st.integers(1, 3), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_search_in_a_random_order_agrees_with_bruteforce(data, k, small_cap):
    g, order = data
    optimum = bruteforce.maximum_size(g.vertices, g.edges, k)

    def check(out):
        assert out.best is not None and out.best == sorted(set(out.best))
        assert out.best_size == len(out.best) <= optimum
        assert bruteforce.is_k_matching(g.vertices, [g.edges[i] for i in out.best], k)

    full = _search_maximum(g, k, _SEARCH_CAP, order)
    check(full)
    if full.settled:
        assert full.best_size == optimum
    capped = _search_maximum(g, k, small_cap, order)
    assert capped.nodes <= small_cap + 1
    if capped.settled:
        assert (capped.best, capped.best_size, capped.nodes) == (full.best, full.best_size, full.nodes)
    elif capped.best is not None:
        check(capped)


def test_search_depth_is_not_bounded_by_the_interpreter():
    # 2,000 edges: one frame per edge would pass Python's recursion limit.
    g = build_named("path", 2001)
    for witness in (True, False):
        rep = max_k_matching(g, 1, witness=witness)
        assert rep.exhaustive and rep.size == 1000 and rep.unmatched == 1, witness
        ok, _ = validate_k_matching(g, rep.witness, 1)
        assert ok and len(rep.witness) == 1000
    assert max_k_matching(g, 1).witness == tuple(g.edges[0::2])


def test_large_product_past_the_old_depth_limit():
    c24 = build_named("cycle", 24)
    p = product(c24, c24, "cartesian").graph
    assert p.m == 1152
    rep = max_k_matching(p, 1, witness=False)
    assert rep.exhaustive and (rep.size, rep.unmatched) == (288, 0)
    ok, _ = validate_k_matching(p, rep.witness, 1)
    assert ok and len(rep.witness) == 288


def test_quickpath_when_k_exceeds_max_degree():
    g = build_named("path", 3)
    rep = max_k_matching(g, 5)
    assert rep.exhaustive and rep.size == 0 and rep.unmatched == g.n
    assert rep.witness == () and rep.nodes == 0


def test_k_validation():
    g = build_named("path", 3)
    for bad in (0, -1):
        with pytest.raises(InvalidK):
            max_k_matching(g, bad)
        with pytest.raises(InvalidK):
            list(enumerate_k_matchings(g, bad))


def test_enumeration_counts():
    assert len(list(enumerate_k_matchings(build_named("path", 3), 1))) == 3
    assert len(list(enumerate_k_matchings(build_named("complete", 3), 1))) == 4
    assert len(list(enumerate_k_matchings(build_named("cycle", 4), 1))) == 7


def test_enumeration_matches_bruteforce(small_corpus):
    for name, g in small_corpus:
        for k in (1, 2, 3):
            ours = {frozenset(m) for m in enumerate_k_matchings(g, k)}
            ref = {frozenset(m) for m in bruteforce.all_k_matchings(g.vertices, g.edges, k)}
            assert ours == ref, (name, k)


def test_enumeration_size_guard():
    g = build_named("complete", 7)  # 21 edges
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_k_matchings(g, 1))
    with pytest.raises(SizeLimitExceeded):
        enumerate_k_matchings(g, 1)  # checked at the call, before the first item


def test_maximum_k_matchings_are_exactly_the_largest():
    g = build_named("cycle", 4)
    tops = _maximum_k_matchings(g, 1)
    assert {len(m) for m in tops} == {2}
    assert len(tops) == 2  # the two ways to pair opposite edges


def test_canonical_matching_checks_the_host():
    g = build_named("path", 3)
    assert canonical_matching(g, [(2, 1)]) == ((1, 2),)
    with pytest.raises(EdgeNotInHost):
        canonical_matching(g, [(0, 2)])


def off_condition_point(*args, **kwargs):
    """A solver answer for path(3), k = 1 that takes both edges and every
    vertex flag: the middle vertex gets degree 2, which is neither 0 nor 1."""
    return types.SimpleNamespace(status=0, x=[1.0] * 5, fun=-2.0, message="")


def test_solver_point_off_the_degree_condition_is_refused(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "milp", off_condition_point)
    with pytest.raises(InvariantViolation):
        _SizeProgram(build_named("path", 3), 1).solve({})


OPTIMIZED_PROBE = """
import types
import scipy.optimize
from kmatch.errors import InvariantViolation
from kmatch.graphs import build_named
from kmatch.matchings import _SizeProgram

scipy.optimize.milp = lambda *a, **kw: types.SimpleNamespace(
    status=0, x=[1.0] * 5, fun=-2.0, message=""
)
try:
    _SizeProgram(build_named("path", 3), 1).solve({})
except InvariantViolation:
    pass
else:
    raise SystemExit("an off-condition solver point was accepted under -O")

# zero duals bound path(3) at its 2 edges, and the all-ones point has 2
# edges, but the middle vertex gets degree 2
scipy.optimize.linprog = lambda c, A_eq, b_eq, **kw: types.SimpleNamespace(
    status=0, x=[1.0] * 5, fun=-2.0, message="",
    eqlin=types.SimpleNamespace(marginals=[0.0] * 3),
)
if _SizeProgram(build_named("path", 3), 1).relax({}) != (2, None):
    raise SystemExit("an off-condition relaxation point was accepted under -O")
"""


def test_solver_check_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(kmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_size_solve_asks_for_the_exact_optimum(monkeypatch):
    seen = {}

    def fake_milp(*args, **kwargs):
        seen.update(kwargs["options"])
        # path(3), k = 1: edge (0, 1), vertices 0 and 1 matched
        return types.SimpleNamespace(status=0, x=[1.0, 0.0, 1.0, 1.0, 0.0], fun=-1.0, message="")

    monkeypatch.setattr(scipy.optimize, "milp", fake_milp)
    assert _SizeProgram(build_named("path", 3), 1).solve({}) == (1, frozenset({0}))
    assert seen["presolve"] is False
    assert seen["mip_rel_gap"] == 0


def test_uniform_degree_and_unmatched():
    g = build_named("complete", 3)
    assert degree_profile(g, ()).uniform == 0
    assert degree_profile(g, g.edges).uniform == 2
    assert degree_profile(g, g.edges[:2]).uniform is None
    assert degree_profile(g, ((0, 1),)).unmatched == (2,)


def test_classify_matching_flags():
    g = build_named("path", 4)
    perfect = classify_matching(g, ((0, 1), (2, 3)), 1)
    assert perfect.valid and perfect.perfect and perfect.maximal
    assert not perfect.near_perfect

    middle = classify_matching(g, ((1, 2),), 1)
    assert middle.valid and middle.maximal and not middle.perfect
    assert middle.unmatched == (0, 3)

    extendable = classify_matching(g, ((0, 1),), 1)
    assert extendable.valid and not extendable.maximal

    bad = classify_matching(g, ((0, 1), (1, 2)), 1)
    assert not bad.valid
    assert bad.perfect is None and bad.maximal is None

    near = classify_matching(build_named("cycle", 5), ((0, 1), (2, 3)), 1)
    assert near.valid and near.near_perfect and near.maximal


def test_classified_maximality_matches_bruteforce(small_corpus):
    for name, g in small_corpus:
        for k in (1, 2):
            for m in enumerate_k_matchings(g, k):
                got = classify_matching(g, m, k).maximal
                want = bruteforce.is_maximal(g.vertices, g.edges, m, k)
                assert got == want, (name, k, m)


graph_data = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]),
            unique=True,
            max_size=10,
        ),
    )
)


@given(graph_data, st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_size_degree_identity_for_every_enumerated_matching(data, k):
    n, edges = data
    g = make_graph(range(n), edges)
    for m in enumerate_k_matchings(g, k):
        u = len(degree_profile(g, m).unmatched)
        assert 2 * len(m) == k * (g.n - u)
        assert (len(m) == k * g.n / 2) == (u == 0)


@given(graph_data, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_oracle_agrees_with_bruteforce_everywhere(data, k):
    n, edges = data
    g = make_graph(range(n), edges)
    rep = max_k_matching(g, k)
    assert rep.exhaustive
    assert rep.size == bruteforce.maximum_size(g.vertices, g.edges, k)
    assert rep.unmatched == bruteforce.unmatched_at_maximum(g.vertices, g.edges, k)
    slim = max_k_matching(g, k, witness=False)
    assert (slim.size, slim.unmatched) == (
        bruteforce.maximum_size(g.vertices, g.edges, k),
        bruteforce.unmatched_at_maximum(g.vertices, g.edges, k),
    )
