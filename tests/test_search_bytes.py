"""Byte pin for the branch-and-bound search and `kmatch solve` output.

Every (left, right, kind, k) product over the connected graphs on four
vertices is searched at the production cap, once in the canonical edge
order and once in degree order, and the canonical JSON of the outcome
(best edge indices, best size, nodes visited, settled flag) is hashed.
The `kmatch solve` payload of every product whose canonical search
settles is hashed as well; it carries the witness and the `nodes`
effort counter, which moves with any change to the visiting order or
the pruning. Both digests were taken before the search was moved from
recursion onto an explicit stack. The payload digest was retaken when
witness queries got a short first try: a product that the canonical
search settles only past that try pays for the later stages, so its
`nodes` moves, while the payloads without `nodes` hash the same before
and after. It was retaken again when the canonical search toward the
optimum and the recovery probes got that short cap too (19 of the 322
payloads move their `nodes`; without `nodes` they hash the same), and
once more when each oracle call's size program became one HiGHS model
re-solved from its last basis: a warm relaxation may return another
optimal point, so a query may settle a probe another way and spend
other `nodes` (1 of the 322 payloads moves; without `nodes` they hash
the same).

The products whose canonical search does not settle go on to the
integer program and to witness recovery. Their (size, witness,
exhaustive) answers are hashed under corpus labels, without `nodes`:
the digest was taken while every recovery probe was a solver call, so it
checks that settling probes another way leaves each witness unchanged.
The same queries also pin every search they make: the canonical first
try, the size stages' degree-ordered search and restarts, the canonical
search toward the optimum, and each witness-recovery probe. The
arguments of the call (k, cap, order, forced edges, target) and its
outcome are hashed, so a change to the kernel that visits other nodes,
or to the recovery that asks other probes, moves that digest. It was
taken when witness queries began to learn their size through the
size-only stages (2,268 calls before, with the 110 canonical root
searches the only capped ones without forced edges; 2,330 after), and
retaken when they got a short first try, a canonical search toward the
optimum and probes in the degree order of the edges left (1,589 calls),
and again when the search toward the optimum and the probes that still
ask the relaxation got the first try's short cap (2,042 calls). It was
retaken when the size program began to re-solve one warm model per
call (2,041 calls): a relaxation's point is another maximum than a cold
solve's on some queries, so the recovery keeps other edges for free
and asks other probes; the witnesses are the same.

The budget pin runs the escalating queries again under budgets from 1
up to each query's full effort: every fifth witness query (canonical
search capped) and every size-only query (degree-ordered search capped),
at eight budgets each. It hashes (budget, size, witness, exhaustive,
nodes), so it covers the degraded reports and the effort counter of
every stage the budget can stop in. It was first taken before the
oracle's budget checks were folded into one place, and retaken when
witness queries began to learn their size through the size-only stages
and again when they got a short first try, and when the search toward
the optimum and the relaxing probes got that short cap too; the 128
size-only runs hash the same across all three changes.
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
SOLVE_PIN = (322, "f95a48fbd3b4c22005809b79c7159a1f6b2ae74d296c6e356ad7fc53569b6ace")
ESCALATED_PIN = (110, "e1102adf0256d67cef4f1a189812727c023a3d1476432bb31a754620109b12ae")
# (calls, (capped searches without forced edges: the canonical first
# try, the degree-ordered search, the restarts and the canonical search
# toward the optimum, settled probes, capped probes), digest of every call)
PROBE_PIN = (
    2041,
    (217, 1519, 192),
    "ed763aa1fac193765320c3d0bef718b1b6e576a228dd5bbb9748c591c131d599",
)
BUDGET_PIN = (304, "a759d44e865c7ee8a3c574c3c49bb63a05a83f0e2d7aeec9368a74bd4236545e")


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
