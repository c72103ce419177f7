#!/usr/bin/env python3
"""Exercise the exact oracle on progressively harder product instances.

Each row is one maximum k-matching query on a product of two named
graphs: the time to build the product, the query's wall time, search
nodes, and whether the run was exhaustive. The two cycle(30) rows
(1,800 edges) lie past the depth at which a recursive search would
exceed Python's recursion limit; the two rows after them escalate to
the solver stage at k = 2. The last row is settled by the search's
parity bound, which the relaxation lacks.
The node counter is the budget currency (tree nodes plus a flat charge
per solver escalation), so the column also shows how far beyond the
plain search an instance had to go. --budget makes the degradation
behavior visible: starved runs still return their best incumbent.
"""

from __future__ import annotations

import argparse
import sys
import time

from kmatch.graphs import build_named
from kmatch.matchings import DEFAULT_NODE_BUDGET, max_k_matching
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
    # 25 vertices at odd k: one stays unmatched, so 36 edges at most.
    # Under --no-witness the search stops at this parity-corrected bound
    # (the relaxation's is 37), the bound the restart stage aims at.
    ("cycle(5)", "cycle(5)", "strong", 3),
)


def parse_named(spec: str):
    family, _, arg = spec.partition("(")
    return build_named(family, int(arg.rstrip(")")))


def bench(budget: int, witness: bool, repeat: int) -> int:
    print(f"{'instance':<36} {'k':>2} {'n':>4} {'m':>5} {'build':>8} {'size':>5} "
          f"{'nodes':>9} {'time':>8} {'exhaustive':>10}")
    worst = 0.0
    for left, right, star, k in INSTANCES:
        g = parse_named(left)
        h = parse_named(right)
        started = time.perf_counter()
        p = product(g, h, star)
        build = time.perf_counter() - started
        best = None
        for _ in range(repeat):
            started = time.perf_counter()
            report = max_k_matching(p.graph, k, budget=budget, witness=witness)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[1]:
                best = (report, elapsed)
        report, elapsed = best
        worst = max(worst, elapsed)
        name = f"{left} {star} {right}"
        print(f"{name:<36} {k:>2} {p.graph.n:>4} {p.graph.m:>5} {build:>7.3f}s {report.size:>5} "
              f"{report.nodes:>9} {elapsed:>7.3f}s {str(report.exhaustive):>10}")
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
    return bench(args.budget, not args.no_witness, max(1, args.repeat))


if __name__ == "__main__":
    sys.exit(main())
