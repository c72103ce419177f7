"""Byte pins for the branch-and-bound search, the oracle and `kmatch solve`.

The corpus is every (left, right, kind, k) product over the connected
graphs on four vertices, k = 1, 2, 3.

SEARCH_PIN hashes the outcome (best edge indices, best size, nodes
visited, settled flag) of the search at the production cap, once in the
canonical edge order and once in degree order. Only a change to the
search kernel's visiting order or pruning may move it.

SOLVE_PIN hashes the `kmatch solve` payload of every product whose
canonical search settles at the production cap. The payload carries the
witness and the `nodes` effort counter, so a change to the stages a
witness query runs, or to their caps, may move it through `nodes`; with
`nodes` left out, the payloads must hash the same.

ESCALATED_PIN hashes the (size, witness, exhaustive) answer of every
product whose canonical search does not settle, under corpus labels and
without `nodes`. It was taken while every witness-recovery probe was a
solver call, so it checks that the witness of each escalated query stays
the canonical one however its stages run; nothing may move it.

PROBE_PIN covers the same queries and every search they make: the short
canonical first try, the size stages' degree-ordered search and
restarts, and each witness-recovery probe. It hashes the arguments of
each call (k, cap, order, forced edges, target) and its outcome, and
counts the calls and, among them, the capped searches without forced
edges, the settled probes and the capped probes. A change to the search
kernel, to the stages or their caps, or to the maximum the size stages
hand to the recovery (which decides the edges the recovery keeps for
free and so the probes it asks) may move it.

BUDGET_PIN runs the escalating queries again under budgets from 1 up to
each query's full effort: every fifth witness query (canonical search
capped) and every size-only query (degree-ordered search capped), at
eight budgets each. It hashes (budget, size, witness, exhaustive,
nodes), so it covers the degraded reports and the effort counter of
every stage the budget can stop in. A change to the stages of either
kind of query or to their charges may move it; the budgets follow each
query's full effort, so a witness query whose `nodes` move is run at
other budgets.
"""

import hashlib
from collections import Counter
from itertools import product as iproduct

from kmatch import matchings
from kmatch.cli import canonical_json, main
from kmatch.corpus import connected_graphs, corpus_names
from kmatch.graphs import graph_to_json_obj
from kmatch.matchings import (
    _SEARCH_CAP,
    _degree_order,
    _search_maximum,
    index_degrees,
    max_k_matching,
)
from kmatch.products import KINDS, product

SEARCH_PIN = (864, "0daa01b6e05b661352a68489c453cca8b60310eae4891b49d9f602d6b8585203")
SOLVE_PIN = (322, "3e9ff9d46804067fa01dbd0cfbaf5513226a902c3ae2e89d175b16c814cfcf47")
ESCALATED_PIN = (110, "e1102adf0256d67cef4f1a189812727c023a3d1476432bb31a754620109b12ae")
# (calls, (capped searches without forced edges: the canonical first
# try, the degree-ordered search and the restarts, settled probes, capped
# probes), digest of every call)
PROBE_PIN = (
    2322,
    (133, 1900, 194),
    "d8ed0675e70539830dac4d14daf3486e2011a7d6f9b96c0ac45af34cbe0ff7d9",
)
BUDGET_PIN = (304, "5e215a10735d088fc383d51c1245b059300c33a6bb7b8a18cfbf7f8fba1b755e")


def products():
    graphs = connected_graphs(4)
    for (i, g), (j, h) in iproduct(enumerate(graphs), repeat=2):
        for kind in KINDS:
            p = product(g, h, kind).graph
            for k in (1, 2, 3):
                yield f"{i} {j} {kind} {k}", p, k


def degree_order(p):
    return _degree_order(p, index_degrees(p.n, p.pairs)[0])


def test_search_outcomes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for where, p, k in products():
        for name, order in (("canonical", None), ("degree", degree_order(p))):
            out = _search_maximum(p, k, _SEARCH_CAP, order)
            digest.update(f"{where} {name}\n".encode())
            digest.update(canonical_json([out.best, out.best_size, out.nodes, out.settled]).encode())
            count += 1
    assert (count, digest.hexdigest()) == SEARCH_PIN


def test_solve_payloads_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    count = 0
    for where, p, k in products():
        if not _search_maximum(p, k, _SEARCH_CAP).settled:
            continue
        path = tmp_path / "product.json"
        path.write_text(canonical_json(graph_to_json_obj(p)))
        assert main(["solve", "--graph", str(path), "--k", str(k)]) == 0, where
        digest.update(f"{where}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        count += 1
    assert (count, digest.hexdigest()) == SOLVE_PIN


def test_escalated_witnesses_are_pinned(monkeypatch):
    calls = []

    def spy(g, k, node_cap, order=None, forced=(), target=None):
        out = _search_maximum(g, k, node_cap, order, forced, target)
        calls.append(
            [k, node_cap, order, list(forced), target, out.best, out.best_size, out.nodes, out.settled]
        )
        return out

    # the oracle looks the search up on its module; the filter below
    # calls the function imported here, which the spy does not record.
    monkeypatch.setattr(matchings, "_search_maximum", spy)
    names = corpus_names(connected_graphs(4))
    digest = hashlib.sha256()
    calls_digest = hashlib.sha256()
    kinds = Counter()
    count = 0
    for where, p, k in products():
        if _search_maximum(p, k, _SEARCH_CAP).settled:
            continue
        i, j, kind, _ = where.split()
        label = f"{names[int(i)]} {names[int(j)]} {kind} {k}\n".encode()
        calls.clear()
        rep = max_k_matching(p, k)
        digest.update(label)
        digest.update(canonical_json([rep.size, rep.witness, rep.exhaustive]).encode())
        calls_digest.update(label)
        for call in calls:
            calls_digest.update(canonical_json(call).encode())
            kinds[bool(call[3]), call[-1]] += 1  # (probe, settled)
        count += 1
    assert (count, digest.hexdigest()) == ESCALATED_PIN
    tally = (kinds[False, False], kinds[True, True], kinds[True, False])
    assert (sum(kinds.values()), tally, calls_digest.hexdigest()) == PROBE_PIN


def test_budgeted_reports_are_pinned():
    names = corpus_names(connected_graphs(4))
    witness_queries, size_queries = [], []
    for where, p, k in products():
        if not _search_maximum(p, k, _SEARCH_CAP).settled:
            witness_queries.append((where, p, k))
        if not _search_maximum(p, k, _SEARCH_CAP, degree_order(p)).settled:
            size_queries.append((where, p, k))
    digest = hashlib.sha256()
    runs = 0
    for witness, queries in ((True, witness_queries[::5]), (False, size_queries)):
        for where, p, k in queries:
            i, j, kind, _ = where.split()
            digest.update(f"{names[int(i)]} {names[int(j)]} {kind} {k} {witness}\n".encode())
            full = max_k_matching(p, k, witness=witness).nodes
            for budget in sorted({1 + (full - 1) * step // 7 for step in range(8)}):
                rep = max_k_matching(p, k, budget=budget, witness=witness)
                digest.update(
                    canonical_json(
                        [budget, rep.size, rep.witness, rep.exhaustive, rep.nodes]
                    ).encode()
                )
                runs += 1
    assert (runs, digest.hexdigest()) == BUDGET_PIN
