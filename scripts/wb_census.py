#!/usr/bin/env python3
"""Census of well-behavedness verdicts over the built-in corpus.

For every ordered factor pair from the connected-graph corpus, every k,
and every product kind a flavor supports, ask the decider and tally the
verdicts. The output is one row per (flavor, star, k) with true/false
counts; --list-false additionally prints the failing pairs, which is a
quick way to find interesting instances.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from itertools import product as iproduct

from kmatch.cli import parse_k_list
from kmatch.constructions import PRODUCT_KINDS
from kmatch.corpus import connected_graphs_upto, corpus_names
from kmatch.errors import KmatchError
from kmatch.matchings import DEFAULT_NODE_BUDGET
from kmatch.wellbehaved import CHECKERS

FLAVORS = ("boxast", "circledast", "ast")


@dataclass
class Tally:
    true: int = 0
    false: int = 0
    unknown: int = 0
    false_pairs: list = field(default_factory=list)


def run_census(
    max_n: int, ks: list[int], flavors: tuple[str, ...], budget: int
) -> dict[tuple[str, str, int], Tally]:
    graphs = list(connected_graphs_upto(max_n))
    corpus = list(zip(corpus_names(graphs), graphs))
    tallies: dict[tuple[str, str, int], Tally] = {}
    for flavor in flavors:
        check = CHECKERS[flavor]
        for star in PRODUCT_KINDS[flavor]:
            for k in ks:
                tally = tallies.setdefault((flavor, star, k), Tally())
                for (gn, g), (hn, h) in iproduct(corpus, corpus):
                    report = check(g, h, star, k, budget=budget)
                    if report.verdict is True:
                        tally.true += 1
                    elif report.verdict is False:
                        tally.false += 1
                        tally.false_pairs.append((gn, hn))
                    else:
                        tally.unknown += 1
    return tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=4, dest="max_n")
    parser.add_argument("--k", default="1,2,3", help="comma-separated k values")
    parser.add_argument("--flavor", action="append", choices=sorted(PRODUCT_KINDS),
                        help="restrict to one flavor (repeatable)")
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    parser.add_argument("--list-false", action="store_true", dest="list_false")
    args = parser.parse_args(argv)
    # bad input, such as no graph or no k (a census that checks nothing),
    # exits 2 with one line, as in `kmatch suite`.
    try:
        tallies = run_census(args.max_n, parse_k_list(args.k), args.flavor or FLAVORS, args.budget)
    except KmatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{'flavor':<12} {'star':<10} {'k':>2} {'true':>6} {'false':>6} {'unknown':>8}")
    for (flavor, star, k), tally in tallies.items():
        print(f"{flavor:<12} {star:<10} {k:>2} {tally.true:>6} {tally.false:>6} "
              f"{tally.unknown:>8}")
        if args.list_false and tally.false_pairs:
            shown = ", ".join(f"{a}|{b}" for a, b in tally.false_pairs[:12])
            more = "" if len(tally.false_pairs) <= 12 else f" (+{len(tally.false_pairs) - 12})"
            print(f"  false: {shown}{more}")
    unknown = sum(t.unknown for t in tallies.values())
    if unknown:
        print(f"warning: {unknown} cells hit the search budget", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
