#!/usr/bin/env python3
"""Exercise the exact oracle on progressively harder product instances.

Each row is one maximum k-matching query on a product of two named
graphs: the time to build the product, the query's wall time, search
nodes, the relaxations and integer programs it solved, the simplex
iterations of its relaxations, and whether the run was exhaustive. The
two cycle(30) rows (1,800 edges) lie past the depth at which a
recursive search would exceed Python's recursion limit; the three rows
after them escalate to the solver stage at k = 2. The last row is
settled by the search's parity bound, which the relaxation lacks.
The node counter is the budget currency (tree nodes plus a flat charge
per solver escalation), so the column also shows how far beyond the
plain search an instance had to go; the search column takes the flat
charges off again and leaves the search's own nodes. --budget makes the degradation
behavior visible: starved runs still return their best incumbent.
"""

from __future__ import annotations

import argparse
import sys
import time

from kmatch.errors import KmatchError
from kmatch.graphs import build_named
from kmatch.matchings import _SOLVE_EFFORT, DEFAULT_NODE_BUDGET, _SizeProgram, max_k_matching
from kmatch.products import product

INSTANCES = (
    ("path(4)", "cycle(5)", "cartesian", 1),
    ("path(4)", "cycle(5)", "strong", 2),
    ("complete(4)", "cycle(6)", "strong", 3),
    ("star(3)", "star(3)", "lex", 3),
    ("cycle(6)", "complete(3)", "lex", 2),
    ("complete(4)", "complete(4)", "strong", 3),
    ("cycle(30)", "cycle(30)", "cartesian", 1),
    ("cycle(30)", "cycle(30)", "cartesian", 2),
    # escalations at k = 2: the relaxation's point settles the first, the
    # second has a fractional relaxation; a witness query needs the
    # integer program there, and under --no-witness a restart settles it.
    ("cycle(13)", "path(13)", "cartesian", 2),
    ("cycle(13)", "path(13)", "strong", 2),
    # the root relaxation with the most simplex iterations among the size
    # queries of the benchmark's `scale` workload.
    ("cycle(21)", "path(20)", "cartesian", 2),
    # 25 vertices at odd k: one stays unmatched, so 36 edges at most.
    # Under --no-witness the search stops at this parity-corrected bound
    # (the relaxation's is 37), the bound the restart stage aims at.
    ("cycle(5)", "cycle(5)", "strong", 3),
)


def parse_named(spec: str):
    family, _, arg = spec.partition("(")
    return build_named(family, int(arg.rstrip(")")))


def bench(budget: int, witness: bool, repeat: int) -> int:
    # solver runs of the current query on its size program's HiGHS model,
    # by `_SizeProgram._run`'s `integral` argument, and the simplex
    # iterations of its relaxations, a count that does not depend on the
    # machine.
    tally = {"relax": 0, "milp": 0, "lp_it": 0}
    run = _SizeProgram._run

    def counted(program, fixed, integral, start=None):
        answer = run(program, fixed, integral, start)
        if integral:
            tally["milp"] += 1
        else:
            tally["relax"] += 1
            tally["lp_it"] += program._solver.getInfo().simplex_iteration_count
        return answer

    _SizeProgram._run = counted
    try:
        return rows(budget, witness, repeat, tally)
    finally:
        _SizeProgram._run = run


def rows(budget: int, witness: bool, repeat: int, tally: dict[str, int]) -> int:
    print(f"{'instance':<36} {'k':>2} {'n':>4} {'m':>5} {'build':>8} {'size':>5} "
          f"{'nodes':>9} {'relax':>5} {'milp':>4} {'lp_it':>6} {'search':>9} {'time':>8} "
          f"{'exhaustive':>10}")
    worst = 0.0
    for left, right, star, k in INSTANCES:
        g = parse_named(left)
        h = parse_named(right)
        started = time.perf_counter()
        p = product(g, h, star)
        build = time.perf_counter() - started
        best = None
        for _ in range(repeat):
            tally.update(relax=0, milp=0, lp_it=0)
            started = time.perf_counter()
            report = max_k_matching(p.graph, k, budget=budget, witness=witness)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[1]:
                best = (report, elapsed)
        report, elapsed = best
        worst = max(worst, elapsed)
        name = f"{left} {star} {right}"
        relax, milp, lp_it = tally["relax"], tally["milp"], tally["lp_it"]
        search = report.nodes - _SOLVE_EFFORT * (relax + milp)
        print(f"{name:<36} {k:>2} {p.graph.n:>4} {p.graph.m:>5} {build:>7.3f}s {report.size:>5} "
              f"{report.nodes:>9} {relax:>5} {milp:>4} {lp_it:>6} {search:>9} "
              f"{elapsed:>7.3f}s {str(report.exhaustive):>10}")
    print(f"slowest query: {worst:.3f}s "
          f"(budget {budget}, witness {witness})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    parser.add_argument("--no-witness", action="store_true",
                        help="size-only queries (skips the canonical witness recovery)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each query this many times, keep the fastest")
    args = parser.parse_args(argv)
    # bad input, such as a budget below 1, exits 2 with one line, as in
    # `kmatch solve`.
    try:
        return bench(args.budget, not args.no_witness, max(1, args.repeat))
    except KmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
