"""Workloads: seeded inputs, the timed operation, and the correctness gate.

Each workload turns a seed into a list of operations during set-up. The
timed loop calls `run` on them in list order; `check` is the correctness
gate and runs outside the timed region; `digest_item` is the part of a
result that a pure performance change must leave alone (search node
counts and size-only witnesses are left out, because a better search may
legitimately change them).

Operations call the library through module attributes
(`kmatch.wellbehaved.equivalence_suite`, `kmatch.products.product`, ...)
so that the traced run can wrap those entry points.

Each workload's op list is one pass over a fixed set of instances; the
seed sets the order of the pass. A timed run repeats the pass, emptying
the library's memos in between, and ends on a pass boundary, so every run
of every seed measures the same work. Instances drawn afresh per seed
made the op mix, and with it the median and the tail, differ from seed
to seed by more than the machine's own noise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from dataclasses import dataclass

import kmatch.cli
import kmatch.matchings
import kmatch.products
import kmatch.wellbehaved
from kmatch.corpus import connected_graphs, connected_graphs_upto, corpus_names
from kmatch.graphs import Graph, build_named, make_graph

STARS = ("cartesian", "strong", "lex")
# draws the fixed instance samples of `sweep` and `solve`; the run seed
# only orders the ops.
SAMPLE_SEED = 0
NX_PRODUCTS = {
    "cartesian": "cartesian_product",
    "strong": "strong_product",
    "direct": "tensor_product",
    "lex": "lexicographic_product",
}


class Gate:
    """The correctness checks of one run of the op loop.

    Checks that need only the library run at once, after the op's clock
    has stopped. The networkx cross-checks (k = 1 sizes against
    `max_weight_matching(maxcardinality=True)`, product edge sets against
    networkx's products) are queued with small inputs and run by
    `finish`, after the peak resident set has been read, so that
    networkx's memory is not charged to the library. Without networkx
    they are skipped and `skipped` says so.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.skipped: str | None = None
        self._queue: list[tuple] = []
        self._queued: set[tuple] = set()

    def fail(self, where: str, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    def witness(self, where: str, graph: Graph, report) -> None:
        """An exhaustive report whose witness is a k-matching of its size."""
        if not report.exhaustive:
            self.fail(where, "report is not exhaustive")
        ok, _ = kmatch.matchings.validate_k_matching(graph, report.witness, report.k)
        if not ok or len(set(report.witness)) != len(report.witness):
            self.fail(where, "witness is not a k-matching")
        if len(report.witness) != report.size:
            self.fail(where, f"witness has {len(report.witness)} edges, size is {report.size}")
        if report.k * (graph.n - report.unmatched) != 2 * report.size:
            self.fail(where, "unmatched count does not fit the size")

    def cross_check(self, where: str, g: Graph, h: Graph | None, kind: str, k: int, size: int,
                    built: Graph | None = None) -> None:
        """Queue the networkx checks of g * h (of g alone when h is None):
        its maximum matching size when k == 1, its edge set when `built`
        is the library's product."""
        edges = None if built is None else (built.n, edge_key(built.edges))
        item = (where, g, h, kind, k, size, edges)
        # a pass repeats the same instances; a repeated answer is checked once.
        if (k == 1 or edges) and item[1:] not in self._queued:
            self._queued.add(item[1:])
            self._queue.append(item)

    def finish(self) -> None:
        try:
            import networkx as nx
        except ImportError:
            self.skipped = "networkx not importable: k=1 and product cross-checks skipped"
            return
        sizes: dict[tuple, int] = {}
        for where, g, h, kind, k, size, edges in self._queue:
            key = (g, h, kind)
            if h is None:
                graph = nx_graph(nx, g)
            else:
                graph = getattr(nx, NX_PRODUCTS[kind])(nx_graph(nx, g), nx_graph(nx, h))
            if edges and edges != (graph.number_of_nodes(), edge_key(graph.edges())):
                self.fail(where, f"{kind} product differs from networkx")
            if k == 1:
                if key not in sizes:
                    sizes[key] = len(nx.max_weight_matching(graph, maxcardinality=True))
                if size != sizes[key]:
                    self.fail(where, f"size {size}, networkx {sizes[key]}")
        self._queue.clear()


def nx_graph(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def product_edges(kind: str, g: Graph, h: Graph) -> int:
    """Edge count of the cartesian or strong product of g and h."""
    mixed = g.m * h.n + g.n * h.m
    return mixed if kind == "cartesian" else mixed + 2 * g.m * h.m


def edge_key(edges) -> int:
    """Order-free fingerprint of an edge set."""
    return hash(frozenset(frozenset(e) for e in edges))


def latin_square(rng: random.Random, n: int):
    """A random n x n Latin square as a function (row, round) -> column.

    Pairing row i with column square(i, r) in round r uses every row and
    every column once per round, and the n rounds cover all n * n pairs
    exactly once.
    """
    rows, cols, symbols = (rng.sample(range(n), n) for _ in range(3))
    return lambda i, r: symbols[(rows[i] + cols[r % n]) % n]


def relabel(rng: random.Random, g: Graph) -> Graph:
    """g with its vertices 0..n-1 permuted at random, which changes the
    canonical edge order the oracle searches in."""
    perm = rng.sample(range(g.n), g.n)
    return make_graph(range(g.n), [(perm[a], perm[b]) for a, b in g.edges])


# ---------------------------------------------------------------------------
# sweep: rows of `kmatch suite --max-n 5 --k 1,2,3`


@dataclass(frozen=True)
class Task:
    left: str
    g: Graph
    right: str
    h: Graph
    k: int


class Sweep:
    """One op is one row of `kmatch suite`: the equivalence_suite cells of
    (g, h, k) for the cartesian, strong and lex products, in that order.

    The instances are two rounds of the census of `kmatch suite --max-n 5
    --k 1,2,3`: one Latin square per k, drawn once from `SAMPLE_SEED`,
    pairs every factor once on each side per k and round, so a pass of
    2 * 93 tasks is balanced over the factors.
    """

    name = "sweep"
    max_n = 5
    ks = (1, 2, 3)
    rounds = 2
    tail_pct = 97

    def generate(self, rng: random.Random) -> list[Task]:
        graphs = connected_graphs_upto(self.max_n)
        names = corpus_names(graphs)
        n = len(graphs)
        sample = random.Random(SAMPLE_SEED)
        squares = {k: latin_square(sample, n) for k in self.ks}
        pairs = [(i, squares[k](i, r), k) for r in range(self.rounds) for k in self.ks for i in range(n)]
        rng.shuffle(pairs)
        return [Task(names[i], graphs[i], names[j], graphs[j], k) for i, j, k in pairs]

    def describe(self, t: Task) -> str:
        return f"{t.left} x {t.right} k={t.k}"

    def run(self, t: Task):
        return [kmatch.wellbehaved.equivalence_suite(t.g, t.h, star, t.k) for star in STARS]

    def check(self, t: Task, reps, gate: Gate) -> None:
        where = self.describe(t)
        for star, rep in zip(STARS, reps):
            if not rep.exhaustive:
                gate.fail(f"{where} {star}", "cell is not exhaustive")
            if rep.agree is not True:
                gate.fail(f"{where} {star}", f"the seven conditions disagree: {rep.conditions}")
            if rep.numbers["product"]["n"] != t.g.n * t.h.n:
                gate.fail(f"{where} {star}", "product order is wrong")
            if t.k == 1:
                gate.cross_check(f"{where} {star}", t.g, t.h, star, 1, rep.numbers["product"]["size"])
        if t.k == 1:
            gate.cross_check(where, t.g, None, "", 1, reps[0].numbers["left"]["size"])
            gate.cross_check(where, t.h, None, "", 1, reps[0].numbers["right"]["size"])
        wb = {star: rep.conditions["unmatched-product"] for star, rep in zip(STARS, reps)}
        if (wb["lex"] and not wb["strong"]) or (wb["strong"] and not wb["cartesian"]):
            gate.fail(where, f"lex => strong => cartesian chain broken: {wb}")

    def digest_item(self, t: Task, reps):
        return [t.left, t.right, t.k, [[rep.star, rep.conditions, rep.agree, rep.numbers] for rep in reps]]


# ---------------------------------------------------------------------------
# solve: `kmatch solve`-style witness queries on four-vertex factors


@dataclass(frozen=True)
class Query:
    g: Graph
    h: Graph
    kind: str
    k: int


class Solve:
    """One op: build a product, run the canonical-witness oracle, and
    serialize the report the way `kmatch solve` does.

    The instances are every (left, right, kind, k) over the six connected
    graphs on four vertices, 432 queries. Even these 16-vertex products
    cost anything from 0.1 ms to half a second, depending on whether the
    search settles or the witness has to be recovered through MILP
    solves, so larger factors leave too few ops in a run for a steady
    figure. Each factor of each query is relabeled at random, drawn once
    from `SAMPLE_SEED`: the cost moves with the labelling (a pass with
    the corpus labels takes three times as long as a typical relabeled
    one, and fresh labellings per seed move the cost of a pass by about a
    tenth), so the labelling is part of the fixed instance set.
    """

    name = "solve"
    kinds = ("cartesian", "strong", "direct", "lex")
    ks = (1, 2, 3)
    order = 4
    tail_pct = 98

    def generate(self, rng: random.Random) -> list[Query]:
        factors = connected_graphs(self.order)
        sample = random.Random(SAMPLE_SEED)
        out = [
            Query(relabel(sample, g), relabel(sample, h), kind, k)
            for g in factors
            for h in factors
            for kind in self.kinds
            for k in self.ks
        ]
        rng.shuffle(out)
        return out

    def describe(self, q: Query) -> str:
        return f"{q.kind} k={q.k} left={list(q.g.edges)} right={list(q.h.edges)}"

    def run(self, q: Query):
        p = kmatch.products.product(q.g, q.h, q.kind)
        r = kmatch.matchings.max_k_matching(p.graph, q.k, witness=True)
        oracle = {
            "k": r.k,
            "size": r.size,
            "unmatched": r.unmatched,
            "witness": list(r.witness),
            "exhaustive": r.exhaustive,
            "nodes": r.nodes,
        }
        return p, r, kmatch.cli.canonical_json({"oracle": oracle})

    def check(self, q: Query, result, gate: Gate) -> None:
        p, r, text = result
        where = self.describe(q)
        gate.witness(where, p.graph, r)
        oracle = json.loads(text)["oracle"]
        if oracle["size"] != r.size or len(oracle["witness"]) != len(r.witness):
            gate.fail(where, "serialized report differs from the oracle report")
        gate.cross_check(where, q.g, q.h, q.kind, q.k, r.size, p.graph)

    def digest_item(self, q: Query, result):
        oracle = json.loads(result[2])["oracle"]
        del oracle["nodes"]
        return [q.kind, q.k, q.g.edges, q.h.edges, oracle]


# ---------------------------------------------------------------------------
# scale: large sparse products, build plus size-only query


@dataclass(frozen=True)
class Build:
    left: str
    g: Graph
    right: str
    h: Graph
    kind: str
    k: int


class Scale:
    """One op: build a product of two paths/cycles and ask its size.

    The instances: for each kind, product orders 100 * 1.2**i for as long
    as every product of that order stays within `max_edges` (nine orders
    from 100 to 440 for cartesian, five from 100 to 210 for strong); at
    each order a square shape and a long one (ten rows, up to 40 columns),
    each for the four path/cycle pairings and k = 1, 2: 208 ops (at order
    100 the two shapes coincide).

    The search recurses once per product edge, so past about 970 edges it
    exceeds Python's default depth limit and raises RecursionError. The
    instances stay below that limit so that no op fails; `probe` runs one
    product past it, once per timed run and outside the op loop, and
    reports what the library does there.
    """

    name = "scale"
    kinds = ("cartesian", "strong")
    ks = (1, 2)
    families = ("path", "cycle")
    factor_orders = (10, 40)
    max_edges = 900
    step = 1.2
    tail_pct = 97
    probe_case = ("cycle", 24, "cycle", 24, "cartesian", 1)  # 1,152 edges

    def shapes(self, order: float) -> list[tuple[int, int]]:
        lo, hi = self.factor_orders
        side = round(order**0.5)
        rows = min(hi, round(order / lo))
        return sorted({(side, round(order / side)), (rows, round(order / rows))})

    def generate(self, rng: random.Random) -> list[Build]:
        out = []
        for kind in self.kinds:
            for i in itertools.count():
                level = []
                for a, b in self.shapes(100 * self.step**i):
                    for fa, fb in itertools.product(self.families, repeat=2):
                        level.append(self.build(fa, a, fb, b, kind, 0))
                if max(product_edges(kind, op.g, op.h) for op in level) > self.max_edges:
                    break
                out.extend(dataclasses.replace(op, k=k) for op in level for k in self.ks)
        rng.shuffle(out)
        return out

    @staticmethod
    def build(fa: str, a: int, fb: str, b: int, kind: str, k: int) -> Build:
        return Build(f"{fa}({a})", build_named(fa, a), f"{fb}({b})", build_named(fb, b), kind, k)

    def probe(self, gate: Gate) -> str:
        """Run `probe_case`, a product past the search's depth limit, and
        describe the outcome. An exhaustive report goes through the gate;
        a degraded one (exhaustive False) is a legitimate answer here."""
        op = self.build(*self.probe_case)
        where = f"depth-limit probe {self.describe(op)} ({product_edges(op.kind, op.g, op.h)} edges)"
        try:
            result = self.run(op)
        except Exception as exc:  # today a RecursionError; reported, not counted
            return f"{where}: {type(exc).__name__} ({exc})"
        if result[1].exhaustive:
            self.check(op, result, gate)
        return f"{where}: size {result[1].size}, exhaustive {result[1].exhaustive}"

    def describe(self, b: Build) -> str:
        return f"{b.left} {b.kind} {b.right} k={b.k}"

    def run(self, b: Build):
        p = kmatch.products.product(b.g, b.h, b.kind)
        return p, kmatch.matchings.max_k_matching(p.graph, b.k, witness=False)

    def check(self, b: Build, result, gate: Gate) -> None:
        p, r = result
        where = self.describe(b)
        gate.witness(where, p.graph, r)
        gate.cross_check(where, b.g, b.h, b.kind, b.k, r.size, p.graph)

    def digest_item(self, b: Build, result):
        _, r = result
        return [b.left, b.right, b.kind, b.k, r.size, r.unmatched, r.exhaustive]


WORKLOADS = {w.name: w for w in (Sweep(), Solve(), Scale())}
