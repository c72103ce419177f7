"""Command line front end.

Subcommands: product, construct, solve, wellbehaved, whp, scenario,
suite. Each subcommand accepts only the options its handler reads, so
an option it would ignore is refused with exit code 2; so is an option
that only another mode of the subcommand reads (such an option defaults
to None). A mode is picked by a value, never by a flag: wellbehaved's
--flavor includes the equivalence suite, whp always reports the W_k
maximum, and a scenario without a name lists them. Machine output is
canonical JSON (sorted keys, two-space indent, a trailing newline) so
repeated runs are byte-identical. `canonical_json` writes it: its bytes
are those of json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=False) plus a newline, and the tests check it against that
call. The library's report dataclasses are printed field for field, and
wall-clock timings never enter JSON payloads. Exit codes: 0 all good, 1
an expectation failed, 2 bad input, 3 a search budget ran out under
--strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from multiprocessing import Pool
from pathlib import Path
from random import Random

from .constructions import CONSTRUCTORS
from .corpus import CORPUS_MAX_VERTICES, connected_graphs_upto, corpus_names, load_corpus_dir
from .errors import InvalidParameter, KmatchError
from .graphs import Graph, graph_to_json_obj, parse_edge_pairs, parse_graph, to_dot
from .matchings import DEFAULT_NODE_BUDGET, check_k, enumerate_k_matchings, max_k_matching
from .products import KINDS, product
from .scenarios import SCENARIOS, run_scenario
from .weakhom import allowed_edges
from .wellbehaved import CHECKERS, equivalence_suite

# wellbehaved --flavor: the three checkers, then the equivalence suite
DECIDERS = {**CHECKERS, "equivalence": equivalence_suite}
DEFAULT_MAX_N = 4

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def canonical_json(payload) -> str:
    """`payload` as the bytes of `json.dumps(payload, sort_keys=True,
    indent=2, ensure_ascii=False)` plus a newline, written in one pass.

    With an indent, json's C encoder is skipped and its pure-Python one
    yields a chunk per token; this writer builds each container as one
    string instead. It takes what the reports hold: dicts with str keys,
    lists, tuples, str, int, float, bool and None. Any other value raises
    TypeError, as in json; so does a dict key that is not a str, which
    json.dumps would write as a string."""
    return _json_text(payload, "\n") + "\n"


_encode_str = json.encoder.encode_basestring  # json's own (C) string escaper


def _json_text(value, pad: str) -> str:
    """`value` as json.dumps writes it at the nesting whose line break and
    indent are `pad`. A container item that is an exact int or str, as
    most of a witness's are, is written in place, without a call."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            kind = type(item)
            if kind is int:
                items.append(int.__repr__(item))
            elif kind is str:
                items.append(_encode_str(item))
            else:
                items.append(_json_text(item, inner))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(key) + ": " + _json_text(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _scalar_text(value)


def _scalar_text(value) -> str:
    """A scalar as json.dumps writes it, tested in json's order."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _print_report(payload: dict, exhaustive: bool, strict: bool) -> int:
    sys.stdout.write(canonical_json(payload))
    return EXIT_BUDGET if strict and not exhaustive else EXIT_OK


def _load(path: str, factor: Graph | None = None):
    """The graph file at `path`, or given its `factor` a matching file."""
    what = "graph" if factor is None else "matching"
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise KmatchError(f"cannot read {what} file {path}: {exc}") from exc
    return parse_graph(text) if factor is None else parse_edge_pairs(text, factor)


def _refuse_unread(args, dests: tuple[str, ...], mode: str) -> None:
    """Refuse a passed option that the chosen mode does not read; such an
    option defaults to None, so passing it is what makes it non-None."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise InvalidParameter(f"--{dest.replace('_', '-')} is not read {mode}")


def parse_k_list(text: str) -> list[int]:
    """The k values of a comma-separated list, each once, in first-seen order."""
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise KmatchError(f"bad --k list {text!r}") from exc
    if not ks:
        raise InvalidParameter(f"--k lists no k: {text!r}")
    for k in ks:
        check_k(k)
    return list(dict.fromkeys(ks))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_product(args) -> int:
    g = _load(args.left)
    h = _load(args.right)
    p = product(g, h, args.kind)
    if args.out == "dot":
        sys.stdout.write(to_dot(p.graph, name="product"))
        return EXIT_OK
    if args.out == "table":
        sys.stdout.write(
            f"{p.kind} product: {p.graph.n} vertices, {p.graph.m} edges "
            f"(left {g.n}/{g.m}, right {h.n}/{h.m})\n"
        )
        return EXIT_OK
    payload = {
        "kind": p.kind,
        "left": graph_to_json_obj(g),
        "right": graph_to_json_obj(h),
        "product": graph_to_json_obj(p.graph),
        "counts": {"vertices": p.graph.n, "edges": p.graph.m},
    }
    sys.stdout.write(canonical_json(payload))
    return EXIT_OK


def _cmd_construct(args) -> int:
    options = {}
    if args.kind == "boxast":
        options = {"orientation": args.orientation or "gh"}
    else:
        _refuse_unread(args, ("orientation",), f"with --kind {args.kind}")
    g = _load(args.left)
    h = _load(args.right)
    p = product(g, h, args.product)
    m_g, m_h = _load(args.mg, g), _load(args.mh, h)
    result = CONSTRUCTORS[args.kind](p, m_g, m_h, **options)
    cls = result.classification
    validated = result.profile.uniform in (0, cls.k) if cls.is_k_matching else None
    payload = {
        "kind": result.kind,
        "orientation": result.orientation,
        "product_kind": p.kind,
        "m_g": list(result.m_g),
        "m_h": list(result.m_h),
        "edges": list(result.edges),
        "parts": {name: list(part) for name, part in result.parts.items()},
        "classification": asdict(cls),
        "size": {"actual": len(result.edges), "predicted": result.predicted_size},
        "validated_k_matching": validated,
    }
    sys.stdout.write(canonical_json(payload))
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load(args.graph)
    # the enumeration refuses too large a graph at the call, before the
    # oracle runs, and walks lazily after it
    members = enumerate_k_matchings(g, args.k) if args.enumerate else None
    report = max_k_matching(g, args.k, budget=args.budget)
    payload = {"oracle": asdict(report)}
    if members is not None:
        all_matchings = list(members)
        payload["enumeration"] = {
            "count": len(all_matchings),
            "matchings": [list(m) for m in all_matchings],
        }
    return _print_report(payload, report.exhaustive, args.strict)


def _cmd_wellbehaved(args) -> int:
    g = _load(args.left)
    h = _load(args.right)
    rep = DECIDERS[args.flavor](g, h, args.star, args.k, budget=args.budget)
    return _print_report(asdict(rep), rep.exhaustive, args.strict)


def _cmd_whp(args) -> int:
    g = _load(args.left)
    h = _load(args.right)
    p = product(g, h, args.product)
    m_g = _load(args.mg, g)
    m_h = _load(args.mh, h)
    universe = allowed_edges(p, m_g, m_h)
    members = enumerate_k_matchings(universe, args.k) if args.enumerate else None
    report = max_k_matching(universe, args.k, budget=args.budget)
    payload = {
        "product_kind": p.kind,
        "universe": {"size": universe.m, "edges": list(universe.edges)},
        "maximum": asdict(report),
    }
    if members is not None:
        payload["enumeration"] = {"count": sum(1 for _ in members)}
    return _print_report(payload, report.exhaustive, args.strict)


def _cmd_scenario(args) -> int:
    if args.name is None:
        if args.out == "table":
            for name, spec in sorted(SCENARIOS.items()):
                sys.stdout.write(f"{name:<16} {spec.description}\n")
            return EXIT_OK
        payload = {
            name: {
                "description": spec.description,
                "factors": list(spec.factors),
                "star": spec.star,
                "k": spec.k,
                "construction": spec.construction,
            }
            for name, spec in sorted(SCENARIOS.items())
        }
        sys.stdout.write(canonical_json(payload))
        return EXIT_OK
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    reports = [run_scenario(name, budget=args.budget) for name in names]
    if args.out == "table":
        for rep in reports:
            state = "pass" if rep.passed else "FAIL"
            sys.stdout.write(f"{rep.name:<16} {state}  ({rep.seconds:.2f}s)\n")
            for check in rep.checks:
                mark = "ok " if check["ok"] else "BAD"
                sys.stdout.write(
                    f"  {mark} {check['label']} = {check['actual']!r} "
                    f"(expected {check['expected']!r}, {check['provenance']})\n"
                )
    else:
        # seconds stay out of the JSON payload: byte-identical reruns.
        payload = {"scenarios": [
            {key: value for key, value in asdict(r).items() if key != "seconds"}
            for r in reports
        ]}
        sys.stdout.write(canonical_json(payload))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURE


# the suite ------------------------------------------------------------------


def _suite_row(task) -> dict:
    left_name, left, right_name, right, k, budget = task
    stars = {}
    unknown = False
    failed = False
    verdicts = {}
    for star in ("cartesian", "strong", "lex"):
        rep = equivalence_suite(left, right, star, k, budget=budget)
        stars[star] = {
            "agree": rep.agree,
            "wellbehaved": rep.conditions["unmatched-product"],
        }
        verdicts[star] = rep.conditions["unmatched-product"]
        if rep.agree is None:
            unknown = True
        elif rep.agree is False:
            failed = True
    if any(v is None for v in verdicts.values()):
        implications = None
        unknown = True
    else:
        implications = (not verdicts["lex"] or verdicts["strong"]) and (
            not verdicts["strong"] or verdicts["cartesian"]
        )
        if not implications:
            failed = True
    return {
        "left": left_name,
        "right": right_name,
        "k": k,
        "stars": stars,
        "implications_ok": implications,
        "failed": failed,
        "unknown": unknown,
    }


def _cmd_suite(args) -> int:
    if args.corpus:
        _refuse_unread(args, ("max_n",), "with --corpus")
    if args.sample is None:
        _refuse_unread(args, ("seed",), "without --sample")
    elif not 0.0 <= args.sample <= 1.0:
        raise InvalidParameter(f"--sample must be a probability in [0, 1], got {args.sample}")
    if args.workers < 1:
        raise InvalidParameter(f"--workers must be at least 1, got {args.workers}")
    # an empty corpus or k list is refused here, so only --sample can
    # leave the sweep without tasks.
    if args.corpus:
        named = list(load_corpus_dir(args.corpus))
    else:
        graphs = connected_graphs_upto(DEFAULT_MAX_N if args.max_n is None else args.max_n)
        named = list(zip(corpus_names(graphs), graphs))
    ks = parse_k_list(args.k)
    tasks = [
        (ln, lg, rn, rg, k, args.budget)
        for ln, lg in named
        for rn, rg in named
        for k in ks
    ]
    if args.sample is not None:
        rng = Random(args.seed or 0)
        tasks = [t for t in tasks if rng.random() < args.sample]
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_suite_row, tasks, chunksize=8)
    else:
        rows = [_suite_row(t) for t in tasks]
    failures = sum(1 for r in rows if r["failed"])
    unknown = sum(1 for r in rows if r["unknown"])
    payload = {
        "rows": rows,
        "summary": {"tasks": len(rows), "failures": failures, "unknown": unknown},
    }
    if args.out == "table":
        for r in rows:
            cells = " ".join(
                f"{star}:{_tri(r['stars'][star]['wellbehaved'])}"
                for star in ("cartesian", "strong", "lex")
            )
            state = "FAIL" if r["failed"] else ("?" if r["unknown"] else "ok")
            sys.stdout.write(f"{r['left']:<10} {r['right']:<10} k={r['k']} {cells} {state}\n")
        sys.stdout.write(
            f"tasks={len(rows)} failures={failures} unknown={unknown}\n"
        )
    else:
        sys.stdout.write(canonical_json(payload))
    if failures:
        return EXIT_FAILURE
    if unknown and args.strict:
        return EXIT_BUDGET
    return EXIT_OK


def _tri(v) -> str:
    return "?" if v is None else ("y" if v else "n")


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: parsing leaves it
    unchanged, and building it costs more than a small command's work."""
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help="search-node budget for the exact oracles")
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument("--strict", action="store_true",
                        help="exit 3 when any oracle result is non-exhaustive")
    oracles = [budget, strict]

    parser = argparse.ArgumentParser(
        prog="kmatch",
        description="k-matchings in graph products: products, constructions, "
        "exact oracles, and well-behavedness deciders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prod = sub.add_parser("product", help="build one of the four products")
    p_prod.add_argument("--out", choices=("json", "dot", "table"), default="json")
    p_prod.add_argument("--kind", choices=KINDS, required=True)
    p_prod.add_argument("--left", required=True, help="left factor graph file")
    p_prod.add_argument("--right", required=True, help="right factor graph file")
    p_prod.set_defaults(handler=_cmd_product)

    p_con = sub.add_parser("construct", help="build a matching construction on a product")
    p_con.add_argument("--kind", choices=("boxast", "ast", "circledast"), required=True)
    p_con.add_argument("--product", choices=KINDS, required=True, dest="product")
    p_con.add_argument("--left", required=True)
    p_con.add_argument("--right", required=True)
    p_con.add_argument("--mg", required=True, help="left factor matching file")
    p_con.add_argument("--mh", required=True, help="right factor matching file")
    p_con.add_argument("--orientation", choices=("gh", "hg"), default=None,
                       help="boxast only: which factor's matching is copied (default gh)")
    p_con.set_defaults(handler=_cmd_construct)

    p_solve = sub.add_parser("solve", parents=oracles, help="exact maximum k-matching")
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--enumerate", action="store_true",
                         help="also list every k-matching (small graphs only)")
    p_solve.set_defaults(handler=_cmd_solve)

    p_wb = sub.add_parser("wellbehaved", parents=oracles,
                          help="decide whether m_k of a product is attained by a construction")
    p_wb.add_argument("--flavor", choices=DECIDERS, default="boxast",
                      help="the construction to decide, or 'equivalence' for the "
                      "seven-condition equivalence suite")
    p_wb.add_argument("--left", required=True)
    p_wb.add_argument("--right", required=True)
    p_wb.add_argument("--star", choices=KINDS, required=True)
    p_wb.add_argument("--k", type=int, required=True)
    p_wb.set_defaults(handler=_cmd_wellbehaved)

    p_whp = sub.add_parser("whp", parents=oracles,
                           help="weak-homomorphism preserving matchings of a product")
    p_whp.add_argument("--product", choices=KINDS, required=True, dest="product")
    p_whp.add_argument("--left", required=True)
    p_whp.add_argument("--right", required=True)
    p_whp.add_argument("--mg", required=True)
    p_whp.add_argument("--mh", required=True)
    p_whp.add_argument("--k", type=int, required=True)
    p_whp.add_argument("--enumerate", action="store_true", help="count all members (bounded)")
    p_whp.set_defaults(handler=_cmd_whp)

    p_scen = sub.add_parser("scenario", parents=[budget], help="run a bundled worked example")
    p_scen.add_argument("--out", choices=("json", "table"), default="json")
    p_scen.add_argument("name", nargs="?",
                        help="scenario name, or 'all'; without one, list the scenarios")
    p_scen.set_defaults(handler=_cmd_scenario)

    p_suite = sub.add_parser("suite", parents=oracles,
                             help="equivalence + implication ledger over a corpus")
    p_suite.add_argument("--out", choices=("json", "table"), default="json")
    p_suite.add_argument("--corpus", help="directory of graph files (default: built-in corpus)")
    p_suite.add_argument("--max-n", type=int, default=None, dest="max_n",
                         help="built-in corpus bound: connected graphs up to this order "
                         f"(default {DEFAULT_MAX_N}, at most {CORPUS_MAX_VERTICES})")
    p_suite.add_argument("--k", default="1,2,3", help="comma-separated k values")
    p_suite.add_argument("--workers", type=int, default=1,
                         help="worker processes (at most one per task and per CPU)")
    p_suite.add_argument("--sample", type=float, default=None,
                         help="keep each task with this probability (uses --seed)")
    p_suite.add_argument("--seed", type=int, default=None, help="seed for --sample (default 0)")
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KmatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
