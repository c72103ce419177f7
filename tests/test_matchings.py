"""Oracle, enumerator, and classifier checks against independent references."""

import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize._highspy import _core as highspy

import bruteforce
import kmatch
from kmatch.constructions import boxast
from kmatch.errors import (
    EdgeNotInHost,
    InvalidK,
    InvalidParameter,
    InvariantViolation,
    SizeLimitExceeded,
)
from kmatch.graphs import build_named, make_graph
from kmatch.corpus import connected_graphs, connected_graphs_upto
from kmatch import matchings
from kmatch.matchings import (
    _SEARCH_CAP,
    _SOLVE_EFFORT,
    _SizeProgram,
    _degree_order,
    _search_maximum,
    classify_matching,
    degree_profile,
    enumerate_k_matchings,
    index_degrees,
    max_k_matching,
    validate_k_matching,
)
from kmatch.products import KINDS, product
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


def record_optimizer_calls(monkeypatch, calls=None):
    """Log each relaxation and integer-program call of the oracle as
    (method, fixed, answer), to `calls` if given."""
    calls = [] if calls is None else calls
    for name in ("relax", "solve"):

        def call(self, fixed, _name=name, _method=getattr(_SizeProgram, name)):
            out = _method(self, fixed)
            calls.append((_name, dict(fixed), out))
            return out

        monkeypatch.setattr(_SizeProgram, name, call)
    return calls


def test_budget_exhaustion_during_witness_recovery():
    # the canonical search (4,000 nodes), the degree-ordered one and the
    # root relaxation (10,000) fit in every budget here; each one runs
    # out in the size stages' restarts or program, or somewhere in the
    # recovery. The degree-ordered search's best is already a maximum, so
    # every degraded report still has 18 edges. The grid spans whatever
    # the recovery costs, so a cheaper recovery still leaves enough
    # budgets inside it.
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
    # hits the cap (the first capped search with forced edges; the root
    # searches and the restarts force none), then give it a budget that
    # runs out 100 nodes into it
    calls = record_optimizer_calls(monkeypatch)
    real_search = matchings._search_maximum
    probes = set()  # positions in `calls` of the searches with forced edges

    def search_spy(g, k, cap, order=None, forced=(), target=None):
        out = real_search(g, k, cap, order, forced, target)
        if forced:
            probes.add(len(calls))
        calls.append(("search", cap, out))
        return out

    monkeypatch.setattr(matchings, "_search_maximum", search_spy)
    max_k_matching(p, 3)
    charged = 0
    for at, (method, cap, out) in enumerate(calls):
        if method != "search":
            charged += _SOLVE_EFFORT
            continue
        if at in probes and not out.settled:
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


def lying_linprog(program, fixed, integral):
    """A relaxation answer that claims an objective of 0 with all-zero
    duals and takes every edge column at 1, fixings or not."""
    assert not integral
    return 0.0, frozenset(range(program.m)), [0.0] * program.n


def infeasible_linprog(program, fixed, integral):
    # the solver claims the program is infeasible
    return None


def fake_relaxation(monkeypatch, fake):
    """Answer every relaxation run of the size program with `fake`; the
    integer program (`integral` true) stays real."""
    real = _SizeProgram._run
    monkeypatch.setattr(
        _SizeProgram, "_run", lambda self, fixed, integral: (real if integral else fake)(self, fixed, integral)
    )


@pytest.mark.parametrize("fake", [lying_linprog, infeasible_linprog], ids=lambda f: f.__name__)
def test_a_lying_relaxation_neither_drops_nor_keeps(monkeypatch, small_corpus, fake):
    # the lying objective is below every optimum here, but the bound
    # comes from the duals, and zero duals bound the size by the edge
    # count; the all-ones point is off the 0-or-k condition in every
    # probe. An infeasible claim decides nothing. So each probe falls
    # through to the integer program, and after the first such relaxation
    # the recovery stops asking it: one relaxation per query at most.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 1)
    fake_relaxation(monkeypatch, fake)
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
            assert relaxed == min(solved, 1), (name, k)
    assert probes > 0


SMALL_CAPS = [1, 5, 10, 24, 40, 50]


@pytest.mark.parametrize("cap", SMALL_CAPS)
def test_a_small_search_cap_keeps_the_canonical_witness(monkeypatch, small_corpus, cap):
    # a small cap leaves most witness queries to the size stages and then
    # to the lexicographic recovery; at caps of 10 to 40 the first try on
    # four vertices gets m plus one to five nodes and gives up on a few
    # small-corpus queries (7, 5 and 3). The witness must still be the
    # lexicographically smallest maximum, and the size the size-only
    # query's. On the small corpus brute force gives the
    # witness; on the products of four-vertex factors (every eleventh
    # query, a different eleventh per cap) the production cap does, whose
    # escalated witnesses `tests/test_search_bytes.py` pins.
    cases = [
        ((name, k), g, k, bruteforce.lex_min_maximum(g.vertices, g.edges, k))
        for name, g in small_corpus
        for k in (1, 2, 3)
    ]
    graphs = connected_graphs(4)
    queries = [
        (g, h, kind, k)
        for g in graphs
        for h in graphs
        for kind in ("cartesian", "strong", "direct", "lex")
        for k in (1, 2, 3)
    ]
    for g, h, kind, k in queries[SMALL_CAPS.index(cap) :: 11]:
        p = product(g, h, kind).graph
        index = {e: i for i, e in enumerate(p.edges)}
        want = tuple(sorted(index[e] for e in max_k_matching(p, k).witness))
        cases.append(((g.edges, h.edges, kind, k), p, k, want))
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    for where, g, k, want in cases:
        rep = max_k_matching(g, k)
        index = {e: i for i, e in enumerate(g.edges)}
        assert rep.exhaustive and tuple(sorted(index[e] for e in rep.witness)) == want, where
        assert rep.size == max_k_matching(g, k, witness=False).size, where


def spy_searches(monkeypatch):
    """Record (cap, order, forced, target, outcome) of every search the
    oracle makes."""
    calls = []
    real = matchings._search_maximum

    def spy(g, k, cap, order=None, forced=(), target=None):
        out = real(g, k, cap, order, forced, target)
        calls.append((cap, order, list(forced), target, out))
        return out

    monkeypatch.setattr(matchings, "_search_maximum", spy)
    return calls


@pytest.mark.parametrize("cap", [1, 5])
def test_the_first_canonical_try_keeps_to_the_cap(monkeypatch, small_corpus, cap):
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    calls = spy_searches(monkeypatch)
    for name, g in small_corpus:
        for k in (1, 2, 3):
            calls.clear()
            rep = max_k_matching(g, k)
            if calls:
                first_cap, order, _, _, _ = calls[0]
                assert order is None and first_cap <= cap, (name, k)
            assert rep.exhaustive, (name, k)


def test_a_first_try_at_depth_m_still_settles():
    # cycle(30) cartesian cycle(30) has 1,800 edges and its first leaf
    # sits at depth 1,800: the short first try must still reach it.
    c30 = build_named("cycle", 30)
    p = product(c30, c30, "cartesian").graph
    rep = max_k_matching(p, 1)
    assert rep.exhaustive and rep.nodes == 1801 and rep.size == 450


@pytest.mark.parametrize("cap", [10, 24])
def test_a_capped_first_try_is_the_only_canonical_search(monkeypatch, sweep_corpus, cap):
    # once the short first try gives up, the size stages search in degree
    # order and each recovery probe in the degree order of the edges it
    # leaves: the canonical witness comes from the recovery, not from a
    # second search in canonical order.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    calls = spy_searches(monkeypatch)
    capped = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            calls.clear()
            rep = max_k_matching(g, k)
            assert_canonical_witness(g, k, rep, (name, k))
            if calls and not calls[0][-1].settled:
                assert calls[0][1] is None, (name, k)
                assert all(order is not None for _, order, _, _, _ in calls[1:]), (name, k)
                capped += 1
    assert capped > 0


def record_stages(monkeypatch):
    """Log every search of the oracle as ("search", forced, outcome, cap,
    order) and every optimizer call as (method, fixed, answer), in the
    order they run."""
    events = []
    real = matchings._search_maximum

    def spy(g, k, cap, order=None, forced=(), target=None):
        out = real(g, k, cap, order, forced, target)
        events.append(("search", list(forced), out, cap, order))
        return out

    monkeypatch.setattr(matchings, "_search_maximum", spy)
    record_optimizer_calls(monkeypatch, events)
    return events


def probe_stages(events):
    """The recovery probes among `events`, by probe edge j: the searches
    that force j last and the optimizer calls that fix j last, in order."""
    stages = {}
    for event in events:
        if event[1]:
            stages.setdefault(max(event[1]), []).append(event)
    return stages


def capped(out) -> bool:
    return out.best is None and not out.settled


def decides(answer, optimum) -> bool:
    # a relaxation's bound below the optimum drops the edge, a point keeps it
    bound, point = answer
    return bound < optimum or point is not None


def assert_canonical_witness(g, k, rep, where):
    index = {e: i for i, e in enumerate(g.edges)}
    got = tuple(sorted(index[e] for e in rep.witness))
    assert rep.exhaustive and got == bruteforce.lex_min_maximum(g.vertices, g.edges, k), where


@pytest.mark.parametrize("cap", [5, 8])
def test_a_probe_the_relaxation_decides_makes_no_full_cap_search(monkeypatch, sweep_corpus, cap):
    # while the relaxation is asked, a probe searches with the short cap
    # (the edges left to decide plus an eighth of the cap); when that
    # search gives up and the relaxation decides the probe, the probe ends
    # there, without the full-cap search.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    events = record_stages(monkeypatch)
    decided = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            events.clear()
            rep = max_k_matching(g, k)
            assert_canonical_witness(g, k, rep, (name, k))
            for j, stages in probe_stages(events).items():
                method, _, out, first_cap, order = stages[0]
                assert method == "search", (name, k, j)
                if stages[1:] and stages[1][0] == "relax" and decides(stages[1][2], rep.size):
                    assert capped(out) and first_cap == matchings._short_cap(len(order))
                    assert [e[0] for e in stages] == ["search", "relax"], (name, k, j)
                    decided += 1
    assert decided > 0


@pytest.mark.parametrize("cap", [8, 12])
def test_an_undecided_probe_searches_at_the_full_cap_before_the_program(
    monkeypatch, sweep_corpus, cap
):
    # with a relaxation that decides nothing (the lying one), the first
    # probe whose short search gives up asks it, then searches again at
    # the full cap, and only a probe that this search leaves open reaches
    # the integer program. The relaxation is asked once per query.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    fake_relaxation(monkeypatch, lying_linprog)
    events = record_stages(monkeypatch)
    full = solved = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            events.clear()
            rep = max_k_matching(g, k)
            assert_canonical_witness(g, k, rep, (name, k))
            for j, stages in probe_stages(events).items():
                if any(e[0] == "relax" for e in stages):
                    short, relax, *rest = stages
                    assert short[0] == "search" and capped(short[2]), (name, k, j)
                    assert short[3] == matchings._short_cap(len(short[4])), (name, k, j)
                    assert relax[0] == "relax" and not decides(relax[2], rep.size)
                    if short[3] < cap:
                        again, *rest = rest
                        assert again[0] == "search" and again[3] == cap, (name, k, j)
                        assert again[1:2] + again[4:] == short[1:2] + short[4:], (name, k, j)
                        full += 1
                        solved += bool(rest)
                    last = again if short[3] < cap else short
                    assert [e[0] for e in rest] == (["solve"] if capped(last[2]) else [])
    assert full > solved > 0


@pytest.mark.parametrize("cap", [8, 16])
def test_once_the_relaxation_is_off_a_probe_searches_once_at_the_full_cap(
    monkeypatch, sweep_corpus, cap
):
    # after the first relaxation that decides nothing, later probes skip
    # it, and so skip the short search too: one search, at the full cap.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", cap)
    fake_relaxation(monkeypatch, lying_linprog)
    events = record_stages(monkeypatch)
    later = 0
    for name, g in sweep_corpus:
        for k in (1, 2, 3):
            events.clear()
            rep = max_k_matching(g, k)
            assert_canonical_witness(g, k, rep, (name, k))
            off = False
            for j, stages in probe_stages(events).items():
                if off:
                    searches = [e for e in stages if e[0] == "search"]
                    assert len(searches) == 1 and searches[0][3] == cap, (name, k, j)
                    assert "relax" not in [e[0] for e in stages], (name, k, j)
                    later += 1
                off = off or any(e[0] == "relax" for e in stages)
    assert later > 0


def test_a_recovery_stops_asking_a_relaxation_that_failed(monkeypatch):
    # star(3) lex star(3) at k = 3: the first probe that reaches the
    # relaxation gets a bound of 20 against the optimum 18 and no point,
    # so every later probe goes straight to the integer program.
    g = build_named("star", 3)
    p = product(g, g, "lex").graph
    calls = record_optimizer_calls(monkeypatch)
    rep = max_k_matching(p, 3)
    assert rep.exhaustive and rep.size == 18
    relaxed = [out for method, fixed, out in calls if method == "relax" and fixed]
    solved = [out for method, fixed, out in calls if method == "solve" and fixed]
    assert len(relaxed) == 1 and relaxed[0][0] >= 18 and relaxed[0][1] is None
    assert len(solved) > 1


@pytest.mark.parametrize("witness", [True, False], ids=["witness", "size-only"])
def test_a_root_solve_that_claims_infeasible_is_a_fault(monkeypatch, witness):
    # the empty matching is feasible, so the integer program at the root
    # always has an optimum; a solver that calls it infeasible is at fault.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", 1)
    # the relaxation and the integer program both claim infeasibility
    monkeypatch.setattr(_SizeProgram, "_run", infeasible_linprog)
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


@pytest.mark.parametrize(
    "graph, order, forced, target, best",
    [
        (build_named("path", 3), [], [0], 1, [0]),  # the forced edge meets the target
        (build_named("path", 3), [], [0], 2, None),  # it misses the target
        (make_graph(range(3), []), None, (), None, []),  # edgeless, no target
    ],
    ids=["forced-meets-target", "forced-misses-target", "edgeless"],
)
def test_a_search_with_no_edge_to_decide(graph, order, forced, target, best):
    # the root is the only node: a leaf, which either meets the incumbent
    # or not; the walk then ends without a position to walk back through.
    out = _search_maximum(graph, 1, _SEARCH_CAP, order, forced, target)
    assert out.nodes == 1 and out.settled
    assert out.best == best
    assert out.best_size == (len(best) if best is not None else target - 1)


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


@given(ordered_connected_graphs(), st.integers(1, 3), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_a_canonical_search_toward_the_optimum_finds_the_canonical_witness(data, k, cap):
    # a search toward the optimum prunes only branches without a maximum,
    # so its first leaf is the lexicographically smallest maximum; capped
    # before that leaf, it has none.
    g, _ = data
    optimum = bruteforce.maximum_size(g.vertices, g.edges, k)
    out = _search_maximum(g, k, cap, None, (), optimum)
    if out.settled:
        assert tuple(out.best) == bruteforce.lex_min_maximum(g.vertices, g.edges, k)
        assert out.best_size == optimum
    else:
        assert out.best is None


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


def test_degree_profile_checks_the_host():
    g = build_named("path", 3)
    assert degree_profile(g, [(2, 1)]).edges == ((1, 2),)
    with pytest.raises(EdgeNotInHost):
        degree_profile(g, [(0, 2)])


def test_degree_profile_builds_no_label_edges_of_the_host():
    # edges are looked up among the host's index pairs, so profiling a
    # matching of a product leaves its label edges unbuilt.
    p = product(build_named("cycle", 5), build_named("path", 3), "cartesian")
    m = [((0, 0), (0, 1)), ((1, 2), (1, 1)), ((3, 0), (4, 0))]
    profile = degree_profile(p.graph, m)
    assert profile.edges == (((0, 0), (0, 1)), ((1, 1), (1, 2)), ((3, 0), (4, 0)))
    assert profile.uniform == 1
    with pytest.raises(EdgeNotInHost):
        degree_profile(p.graph, [((0, 0), (1, 1))])
    assert "edges" not in p.graph.__dict__


def off_condition_point(program, fixed, integral):
    """A solver answer for path(3), k = 1 that takes both edges: the
    middle vertex gets degree 2, which is neither 0 nor 1."""
    return 2.0, frozenset({0, 1}), [0.0] * 3


def test_solver_point_off_the_degree_condition_is_refused(monkeypatch):
    monkeypatch.setattr(_SizeProgram, "_run", off_condition_point)
    with pytest.raises(InvariantViolation):
        _SizeProgram(build_named("path", 3), 1).solve({})


OPTIMIZED_PROBE = """
from kmatch.errors import InvariantViolation
from kmatch.graphs import build_named
from kmatch.matchings import _SizeProgram

# both edges of path(3) taken, so the middle vertex gets degree 2; for the
# relaxation, zero duals bound path(3) at its 2 edges, and the point has 2
_SizeProgram._run = lambda self, fixed, integral: (2.0, frozenset({0, 1}), [0.0] * 3)
try:
    _SizeProgram(build_named("path", 3), 1).solve({})
except InvariantViolation:
    pass
else:
    raise SystemExit("an off-condition solver point was accepted under -O")

if _SizeProgram(build_named("path", 3), 1).relax({}) != (2, None):
    raise SystemExit("an off-condition relaxation point was accepted under -O")

# edge 0 alone is a 1-matching of path(3), but it is fixed out; zero duals
# bound the program at its one undecided edge, which the point meets
_SizeProgram._run = lambda self, fixed, integral: (1.0, frozenset({0}), [0.0] * 3)
try:
    _SizeProgram(build_named("path", 3), 1).solve({0: 0})
except InvariantViolation:
    pass
else:
    raise SystemExit("a solver point against the fixings was accepted under -O")

if _SizeProgram(build_named("path", 3), 1).relax({0: 0}) != (1, None):
    raise SystemExit("a relaxation point against the fixings was accepted under -O")
"""


def run_child(code, *options):
    """Run `code` in a fresh interpreter that imports this kmatch."""
    src = os.path.dirname(os.path.dirname(kmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *options, "-c", code], capture_output=True, text=True, env=env)


def test_solver_check_survives_optimized_mode():
    proc = run_child(OPTIMIZED_PROBE, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr


REFUSED_PROBE = """
from scipy.optimize._highspy import _core as highspy

from kmatch.errors import InvariantViolation
from kmatch.graphs import build_named
from kmatch.matchings import _SizeProgram

real = highspy._Highs


class RefusesModel(real):
    def passModel(self, *model):
        return highspy.HighsStatus.kError


class RefusesBasis(real):
    def setBasis(self, *basis):
        return highspy.HighsStatus.kError


for solver, start in ((RefusesModel, None), (RefusesBasis, [0])):
    highspy._Highs = solver
    program = _SizeProgram(build_named("path", 3), 1)
    if start is not None:
        program.start_at(start)
    try:
        program.relax({})
    except InvariantViolation:
        pass
    else:
        raise SystemExit(f"{solver.__name__}: the refusal was not noticed under -O")
"""


def test_a_refused_model_or_basis_raises_under_optimized_mode():
    proc = run_child(REFUSED_PROBE, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr


QUIET_PROBE = """
from kmatch.graphs import build_named
from kmatch.matchings import _SizeProgram

program = _SizeProgram(build_named("path", 5), 1)
for fixed in ({0: 1}, {0: 1, 2: 1}, {1: 1, 3: 0}, {}):
    program.relax(fixed)
    program.solve(fixed)
"""


def test_integer_programs_with_kept_edges_write_nothing_to_stdout():
    # the bundled HiGHS writes a line for each solution its branch-and-bound
    # finds while a column is fixed at 1, below Python's sys.stdout, so the
    # program runs in a child whose stdout is read whole once it has
    # exited: every line it wrote would land in the CLI's JSON.
    proc = run_child(QUIET_PROBE)
    assert proc.returncode == 0 and proc.stdout == "", proc.stdout + proc.stderr


CLOSED_STDOUT_PROBE = """
import os
import sys

os.close(1)
sys.stdout = None  # as Python sets it up when started without a descriptor 1

from kmatch.graphs import build_named
from kmatch.matchings import _SizeProgram

program = _SizeProgram(build_named("path", 5), 1)
if program.solve({})[0] != 2 or program.relax({0: 1})[0] != 2:
    sys.exit("wrong answer without a stdout")
"""


def test_the_solver_runs_without_a_stdout():
    # each run points descriptor 1 at the null device and back; a process
    # that has no descriptor 1 still gets its answers
    proc = run_child(CLOSED_STDOUT_PROBE)
    assert proc.returncode == 0, proc.stderr


def test_size_solve_asks_for_the_exact_optimum(monkeypatch):
    # the options are read off the solver as it starts, so they are the
    # ones HiGHS runs with.
    seen = {}

    class Recording(highspy._Highs):
        def run(self):
            seen.update({key: self.getOptionValue(key)[1] for key in ("presolve", "mip_rel_gap")})
            return super().run()

        def getSolution(self):
            solution = super().getSolution()
            # path(3), k = 1: edge (0, 1), vertices 0 and 1 matched
            solution.col_value = [1.0, 0.0, 1.0, 1.0, 0.0]
            return solution

    monkeypatch.setattr(highspy, "_Highs", Recording)
    assert _SizeProgram(build_named("path", 3), 1).solve({}) == (1, frozenset({0}))
    assert seen["presolve"] == "off"
    assert seen["mip_rel_gap"] == 0


def test_a_program_with_every_edge_fixed_still_solves():
    # no edge column is left, only the vertex flags
    program = _SizeProgram(build_named("path", 3), 1)
    assert program.relax({0: 1, 1: 0}) == (1, frozenset({0}))
    assert program.solve({0: 1, 1: 0}) == (1, frozenset({0}))
    # both edges give the middle vertex degree 2: infeasible, and the
    # relaxation falls back to the edge count
    assert program.relax({0: 1, 1: 1}) == (2, None)
    assert program.solve({0: 1, 1: 1}) is None


def warm_sequence_products():
    """Every product of connected factors with four vertices in all (a
    four-vertex factor beside K1, or K2 beside K2) and with six (a two-
    and a three-vertex factor), over the four kinds, when it has edges."""
    graphs = connected_graphs_upto(4)
    for g in graphs:
        for h in graphs:
            if g.n * h.n == 4 or {g.n, h.n} == {2, 3}:
                for kind in ("cartesian", "strong", "direct", "lex"):
                    p = product(g, h, kind).graph
                    if p.m:
                        yield (g.edges, h.edges, kind), p


def recovery_sequence(where, p, k, every, program, start=None, integer_probes=True):
    """Run a recovery-like sequence of fixings on `program`, a fresh size
    program of p at k, and check each answer against brute force under
    the same fixings; `every` is the set of all k-matchings of p, as edge
    index sets, and `where` names p in a failure. The root relaxation
    comes first, started at the vertex of `start` if one is given, and
    the root integer program after it. Then, per edge j in canonical
    order, a probe that keeps j on top of the decisions so far (with
    `integer_probes` every third one is solved as an integer program
    too, so integrality goes on and off between warm relaxations), then
    the decision itself, which follows the lexicographically smallest
    maximum. Returns the number of probes answered with a point and the
    number that no k-matching honors."""
    optimum = max(len(m) for m in every)
    canonical = min(sorted(m) for m in every if len(m) == optimum)

    def check(fixed, integral):
        honoring = [m for m in every if all((j in m) == bool(v) for j, v in fixed.items())]
        best = max((len(m) for m in honoring), default=None)
        bound, point = program.relax(fixed)
        assert best is None or bound >= best, (where, k, start, fixed)
        if point is not None:
            assert point in honoring and len(point) == bound, (where, k, start, fixed)
        if integral:
            solved = program.solve(fixed)
            if best is None:
                assert solved is None, (where, k, start, fixed)
            else:
                assert solved is not None and solved[1] in honoring, (where, k, start, fixed)
                assert solved[0] == len(solved[1]) == best, (where, k, start, fixed)
        return point is not None, best is None

    if start is not None:
        program.start_at(start)
    check({}, True)
    fixed: dict[int, int] = {}
    points = infeasible = 0
    for j in range(p.m):
        found, none = check({**fixed, j: 1}, integer_probes and j % 3 == 0)
        points += found
        infeasible += none
        fixed[j] = int(j in canonical)
        check(fixed, False)
    return points, infeasible


def all_k_matchings(p, k):
    index = {e: i for i, e in enumerate(p.edges)}
    every = bruteforce.all_k_matchings(p.vertices, p.edges, k)
    return [frozenset(index[e] for e in m) for m in every]


def test_warm_size_program_stays_exact_over_a_recovery_sequence():
    # one size program per product and k answers a recovery-like run of
    # fixings from a cold root (see `recovery_sequence`).
    points = infeasible = 0
    for where, p in warm_sequence_products():
        for k in (1, 2, 3):
            every = all_k_matchings(p, k)
            found, none = recovery_sequence(where, p, k, every, _SizeProgram(p, k))
            points += found
            infeasible += none
    assert points > 0 and infeasible > 0


def test_size_program_started_at_a_matching_stays_exact():
    # the same runs of fixings with the root relaxation started at the
    # vertex of a k-matching: the empty one, the lexicographically
    # smallest non-empty one that is not a maximum, and the
    # lexicographically largest maximum. Only the root is also solved as
    # an integer program: the probes after it run as in the cold test.
    starts = Counter()
    for where, p in warm_sequence_products():
        for k in (1, 2, 3):
            every = all_k_matchings(p, k)
            optimum = max(len(m) for m in every)
            short = [sorted(m) for m in every if 0 < len(m) < optimum]
            chosen = {
                "empty": [],
                "short": min(short, default=None),
                "maximum": max(sorted(m) for m in every if len(m) == optimum),
            }
            for name, start in chosen.items():
                if start is not None:
                    program = _SizeProgram(p, k)
                    recovery_sequence(where, p, k, every, program, start, integer_probes=False)
                    starts[name] += 1
    assert min(starts.values()) > 0 and len(starts) == 3


def test_the_root_relaxation_starts_at_the_search_s_best_matching_if_any(monkeypatch):
    # each run records whether a basis was set before it and the simplex
    # it ran: 4 is the primal simplex, 1 the dual.
    runs = []

    class Recording(highspy._Highs):
        def setBasis(self, *basis):
            runs.append("basis")
            return super().setBasis(*basis)

        def run(self):
            runs.append(self.getOptionValue("simplex_strategy")[1])
            return super().run()

    monkeypatch.setattr(highspy, "_Highs", Recording)
    # the degree-ordered search stops at its cap one edge short of the
    # maximum of 169; the root relaxation starts at that matching, and
    # the witness recovery's relaxations run the dual simplex after it.
    p = product(build_named("cycle", 13), build_named("path", 13), "cartesian").graph
    for witness in (False, True):
        runs.clear()
        rep = max_k_matching(p, 2, witness=witness)
        assert (rep.size, rep.exhaustive) == (169, True)
        assert runs[:2] == ["basis", 4] and set(runs[2:]) <= {1}, runs
    assert len(runs) > 2
    # a cap below the edge count leaves the search without a leaf, so
    # without a matching to start from: the root starts from nothing.
    monkeypatch.setattr(matchings, "_SEARCH_CAP", p.m - 1)
    runs.clear()
    rep = max_k_matching(p, 2, witness=False)
    assert (rep.size, rep.exhaustive) == (169, True)
    assert runs and "basis" not in runs and set(runs) == {1}, runs


def random_k_matching(p, k, rng):
    """A k-matching of p drawn from bruteforce's enumeration of the
    subgraph induced by at most five random vertices (a k-matching of an
    induced subgraph is one of p), non-empty when there is one."""
    chosen = set(rng.sample(p.vertices, min(5, p.n)))
    inside = [e for e in p.edges if e[0] in chosen and e[1] in chosen]
    every = bruteforce.all_k_matchings(sorted(chosen), inside, k)
    return rng.choice([m for m in every if m] or every)


@lru_cache(maxsize=None)
def seeded_cases():
    """(where, product, k, unseeded size-only report, starts) over the
    products of the connected graphs on four vertices, all four kinds,
    k = 1..3. The starts are the empty matching, the unseeded report's
    witness, the boxast of the factors' canonical witnesses (a k-matching
    of every kind but direct, which has no Cartesian edges) and two
    random k-matchings."""
    rng = random.Random(29)
    factors = connected_graphs(4)
    cases = []
    for i, g in enumerate(factors):
        for j, h in enumerate(factors):
            for kind in KINDS:
                p = product(g, h, kind)
                for k in (1, 2, 3):
                    plain = max_k_matching(p.graph, k, witness=False)
                    starts = {"empty": (), "unseeded": plain.witness}
                    if kind != "direct":
                        witnesses = max_k_matching(g, k).witness, max_k_matching(h, k).witness
                        starts["boxast"] = boxast(p, *witnesses).edges
                    for r in range(2):
                        starts[f"random {r}"] = random_k_matching(p.graph, k, rng)
                    cases.append(((i, j, kind, k), p.graph, k, plain, starts))
    return cases


def test_a_seeded_size_query_answers_as_the_unseeded_one():
    tried = Counter()
    for where, p, k, plain, starts in seeded_cases():
        for name, start in starts.items():
            rep = max_k_matching(p, k, witness=False, start=start)
            at = (where, name)
            assert (rep.size, rep.unmatched, rep.exhaustive) == (
                plain.size, plain.unmatched, plain.exhaustive
            ), at
            ok, _ = validate_k_matching(p, rep.witness, k)
            assert ok and len(set(rep.witness)) == len(rep.witness) == rep.size, at
            tried[name] += bool(start)
    # every kind of start is tried, and non-empty
    assert len(tried) == 5 and min(v for name, v in tried.items() if name != "empty") > 100


@pytest.mark.parametrize("budget", [1, 3, 10, 50, 400, 4_000, 15_000])
def test_a_seeded_size_query_keeps_to_the_budget(budget):
    # a degraded report carries the seed or something larger: the seed
    # stands in for the search's best, and costs no nodes.
    for where, p, k, plain, starts in seeded_cases():
        for name, start in starts.items():
            rep = max_k_matching(p, k, budget=budget, witness=False, start=start)
            at = (where, name)
            assert rep.nodes <= budget, at
            ok, _ = validate_k_matching(p, rep.witness, k)
            assert ok and len(set(rep.witness)) == len(rep.witness) == rep.size, at
            assert len(start) <= rep.size <= plain.size, at
            if rep.exhaustive:
                assert rep.size == plain.size, at


def test_a_start_must_be_a_k_matching_of_the_host():
    p = product(build_named("path", 3), build_named("path", 3), "cartesian").graph
    with pytest.raises(EdgeNotInHost):
        max_k_matching(p, 1, witness=False, start=[((0, 0), (1, 1))])
    # (0, 1) gets degree 2, which is neither 0 nor 1
    with pytest.raises(InvariantViolation):
        max_k_matching(p, 1, witness=False, start=[((0, 0), (0, 1)), ((0, 1), (0, 2))])
    # a witness query recovers the canonical witness from nothing
    with pytest.raises(InvalidParameter):
        max_k_matching(p, 1, start=())
    with pytest.raises(InvalidParameter):
        max_k_matching(p, 1, witness=True, start=[((0, 0), (0, 1))])


START_PROBE = """
from kmatch.errors import InvariantViolation
from kmatch.graphs import build_named
from kmatch.matchings import max_k_matching
from kmatch.products import product

p = product(build_named("path", 3), build_named("path", 3), "cartesian").graph
try:
    max_k_matching(p, 1, witness=False, start=[((0, 0), (0, 1)), ((0, 1), (0, 2))])
except InvariantViolation:
    pass
else:
    raise SystemExit("a start off the 0-or-1 condition was accepted under -O")
"""


def test_a_start_off_the_condition_raises_under_optimized_mode():
    proc = run_child(START_PROBE, "-O")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_a_seeded_search_keeps_the_seed_unless_it_finds_more(small_corpus):
    # `floor` is the seed's size: a settled search without a larger leaf
    # has no best, and one that has a best has a larger one, the maximum.
    for _, g in small_corpus:
        degree, _ = index_degrees(g.n, g.pairs)
        order = _degree_order(g, degree)
        for k in (1, 2, 3):
            optimum = bruteforce.maximum_size(g.vertices, g.edges, k)
            for floor in range(optimum + 1):
                out = _search_maximum(g, k, _SEARCH_CAP, order, floor=floor)
                assert out.settled
                if floor == optimum:
                    assert out.best is None and out.best_size == floor
                else:
                    assert out.best_size == len(out.best) == optimum


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
