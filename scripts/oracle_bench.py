#!/usr/bin/env python3
"""Exercise the exact oracle on progressively harder product instances.

Each row is one maximum k-matching query on a product of two named
graphs: the time to build the product, the query's wall time, search
nodes, and whether the run was exhaustive. The last two rows (1,800
edges) lie past the depth at which a recursive search would exceed
Python's recursion limit.
The node counter is the budget currency (tree nodes plus a flat charge
per solver escalation), so the column also shows how far beyond the
plain search an instance had to go. --budget makes the degradation
behavior visible: starved runs still return their best incumbent.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

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
)


@dataclass
class BenchConfig:
    budget: int = DEFAULT_NODE_BUDGET
    witness: bool = True
    repeat: int = 1


def parse_named(spec: str):
    family, _, arg = spec.partition("(")
    return build_named(family, int(arg.rstrip(")")))


def bench(cfg: BenchConfig) -> int:
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
        for _ in range(cfg.repeat):
            started = time.perf_counter()
            report = max_k_matching(p.graph, k, budget=cfg.budget, witness=cfg.witness)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[1]:
                best = (report, elapsed)
        report, elapsed = best
        worst = max(worst, elapsed)
        name = f"{left} {star} {right}"
        print(f"{name:<36} {k:>2} {p.graph.n:>4} {p.graph.m:>5} {build:>7.3f}s {report.size:>5} "
              f"{report.nodes:>9} {elapsed:>7.3f}s {str(report.exhaustive):>10}")
    print(f"slowest query: {worst:.3f}s "
          f"(budget {cfg.budget}, witness {cfg.witness})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    parser.add_argument("--no-witness", action="store_true",
                        help="size-only queries (skips the canonical witness recovery)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each query this many times, keep the fastest")
    args = parser.parse_args(argv)
    cfg = BenchConfig(budget=args.budget, witness=not args.no_witness,
                      repeat=max(1, args.repeat))
    return bench(cfg)


if __name__ == "__main__":
    sys.exit(main())
