"""Smoke tests of the helper scripts under scripts/."""

import runpy
from pathlib import Path

import pytest

from kmatch.constructions import PRODUCT_KINDS
from kmatch.matchings import _SEARCH_CAP, _SOLVE_EFFORT, _SizeProgram

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_wb_census_prints_one_row_per_flavor_star_and_k(capsys):
    census = runpy.run_path(str(SCRIPTS / "wb_census.py"), run_name="wb_census")
    assert census["main"](["--max-n", "3", "--k", "1,2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["flavor", "star", "k"]
    cells = [tuple(row.split()[:3]) for row in rows]
    flavors = ("boxast", "circledast", "ast")
    assert cells == [(f, star, k) for f in flavors for star in PRODUCT_KINDS[f] for k in ("1", "2")]


@pytest.mark.parametrize("option", [["--k", ","], ["--max-n", "0"]], ids=" ".join)
def test_wb_census_that_checks_nothing_is_refused(capsys, option):
    census = runpy.run_path(str(SCRIPTS / "wb_census.py"), run_name="wb_census")
    assert census["main"](option) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_oracle_bench_refuses_a_budget_below_one(capsys):
    bench = runpy.run_path(str(SCRIPTS / "oracle_bench.py"), run_name="oracle_bench")
    assert bench["main"](["--budget", "0"]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and out.split()[:2] == ["instance", "k"]  # no row
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oracle_bench_prints_one_row_per_instance(capsys):
    bench = runpy.run_path(str(SCRIPTS / "oracle_bench.py"), run_name="oracle_bench")
    assert bench["main"](["--budget", "1"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["instance", "k"]
    assert len(rows) == len(bench["INSTANCES"])
    assert summary.startswith("slowest query:")


def test_oracle_bench_counts_each_query_s_solver_calls(capsys):
    bench = runpy.run_path(str(SCRIPTS / "oracle_bench.py"), run_name="oracle_bench")
    run = _SizeProgram._run
    assert bench["main"](["--no-witness"]) == 0
    assert _SizeProgram._run is run  # the counting wrapper is taken off again
    header, *rows, _ = capsys.readouterr().out.splitlines()
    columns = ["nodes", "relax", "milp", "lp_it", "search", "time", "exhaustive"]
    assert header.split()[-7:] == columns
    counts, searches = {}, {}
    for row, (left, right, kind, k) in zip(rows, bench["INSTANCES"]):
        nodes, relax, milp, lp_it, search = (int(x) for x in row.split()[-7:-2])
        # every solver call is charged a flat _SOLVE_EFFORT; the search
        # column is what is left
        assert search == nodes - _SOLVE_EFFORT * (relax + milp) and search >= 0, row
        # a relaxation of these products takes at least one simplex
        # iteration, and a query without one takes none
        assert (lp_it > 0) == (relax > 0), row
        counts[left, kind, right, k] = (nodes, relax, milp)
        searches[left, kind, right, k] = search
    # star(3) lex star(3) at k = 3 runs the degree-ordered search and four
    # restarts, each to the cap, one relaxation and one integer program;
    # cycle(13) cartesian path(13) at k = 2 is settled by the relaxation's
    # point after one capped search, and so is cycle(21) cartesian
    # path(20) at k = 2, and the parity bound settles
    # cycle(5) strong cycle(5) at k = 3 without a solver.
    assert counts["star(3)", "lex", "star(3)", 3] == (5 * _SEARCH_CAP + 2 * _SOLVE_EFFORT, 1, 1)
    assert searches["star(3)", "lex", "star(3)", 3] == 5 * _SEARCH_CAP
    assert counts["cycle(13)", "cartesian", "path(13)", 2] == (_SEARCH_CAP + _SOLVE_EFFORT, 1, 0)
    assert counts["cycle(21)", "cartesian", "path(20)", 2] == (_SEARCH_CAP + _SOLVE_EFFORT, 1, 0)
    assert counts["cycle(5)", "strong", "cycle(5)", 3][1:] == (0, 0)
