"""Deciders for when constructed matchings attain the product's maximum.

A product's k-matching number is "well-behaved" with respect to a
construction when some instance of that construction over factor
matchings is a maximum k-matching of the product:

* boxast flavor (cartesian/strong/lex): attained by a boxast pair; the
  seven-condition equivalence (see equivalence_suite) reduces this to
  u_k(G*H) = u_k(G) u_k(H), which the decider evaluates with exact
  oracle values.
* circledast flavor (strong/lex): attained by a circledast set; holds
  exactly when some factor pair in one of the regimes M1-M4 satisfies
  u_G u_H = u_k(G*H).
* ast flavor (strong/direct/lex): attained by a diagonals-only set; holds
  exactly when m_k(G*H) = 2 m_{k_G}(G) m_{k_H}(H) for some factor split
  k_G k_H = k.

Verdicts are tri-state: True/False only when every oracle involved ran to
completion, None (unknown) when a budget ran out. Factor-side
enumerations are exact and guarded by size limits.

The equivalence suite evaluates the seven characterizations of the boxast
flavor independently, each by its own route, and reports whether they
agree; the acceptance suite demands agreement on the whole small-graph
corpus. Its all-max-pairs conditions build every pair's boxast set with
the constructions' own edge rule, in product index space, and check it
with the constructions' own validation, but build no ConstructionResult.

The sweeps repeat factor queries, so the immutable oracle reports and
enumerations live in a bounded memo of 1,024 entries (`cached_query`);
the deciders build products per call, and an equal product graph finds
the answers cached under it. The equivalence suite keeps its own
bounded memo of 1,024 rows (`cached_row`): a row is the three boxast
stars of one factor pair and k. It answers each of its cells once,
asks each product's size-only query from the k-matching of the
product below it (E(cartesian) within E(strong) within E(lex), on one
vertex order), and shares the all-max-pairs sets, which depend only on
the factors, among its cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct
from typing import Iterator

from .constructions import (
    PRODUCT_KINDS,
    FactorForm,
    boxast,
    boxast_parts,
    distinct_pairs,
    factor_form,
    require_members,
)
from .errors import UnsupportedKind
from .graphs import Graph
from .matchings import (
    DEFAULT_NODE_BUDGET,
    OracleReport,
    check_k,
    enumerate_k_matchings,
    index_degrees,
    max_k_matching,
)
from .products import ProductGraph, product


@dataclass(frozen=True)
class WellBehavedReport:
    flavor: str
    star: str
    k: int
    verdict: bool | None
    evidence: dict
    exhaustive: bool


@dataclass(frozen=True)
class EquivalenceReport:
    star: str
    k: int
    conditions: dict[str, bool | None]
    agree: bool | None
    numbers: dict
    exhaustive: bool


# a key may hold a product Graph with its cached index, label edges and
# neighbour lists: the bound is what caps the layer's memory on a long sweep.
MEMO_SIZE = 1024
WITNESS, ALL = "witness", "all"


@lru_cache(maxsize=MEMO_SIZE)
def cached_query(g: Graph, k: int, mode: str, budget: int | None):
    """The oracle report with the canonical witness (WITNESS), or every
    k-matching of g (ALL, budget None). Pass all four arguments
    positionally, so that equal queries share one key. The suite's
    product queries are size-only and live in its rows (`cached_row`)."""
    if mode == ALL:
        return tuple(enumerate_k_matchings(g, k))
    return max_k_matching(g, k, budget=budget, witness=True)


def _k_matchings(g: Graph, k: int) -> tuple[tuple, ...]:
    return cached_query(g, k, ALL, None)


def _maximum_k_matchings(g: Graph, k: int) -> list[tuple]:
    everything = _k_matchings(g, k)
    best = max(len(m) for m in everything)
    return [m for m in everything if len(m) == best]


def achievable_unmatched(g: Graph, k: int) -> tuple[int, ...]:
    """Distinct unmatched counts over all k-matchings of g, ascending."""
    return tuple(sorted({g.n - 2 * len(m) // k for m in _k_matchings(g, k)}))


def _divisor_splits(k: int) -> list[tuple[int, int]]:
    return [(d, k // d) for d in range(1, k + 1) if k % d == 0]


def _report_numbers(r: OracleReport) -> dict:
    return {"size": r.size, "unmatched": r.unmatched, "witness": list(r.witness)}


def _check_star(star: str, k: int, flavor: str) -> None:
    check_k(k)
    if star not in PRODUCT_KINDS[flavor]:
        raise UnsupportedKind(f"{flavor} flavor is undefined on the {star} product")


def _product_query(g: Graph, h: Graph, star: str, k: int, flavor: str, budget: int):
    """The product G*H and its canonical oracle report, once k and the
    star are checked against the flavor's product kinds."""
    _check_star(star, k, flavor)
    p = product(g, h, star)
    return p, cached_query(p.graph, k, WITNESS, budget)


def check_boxast(
    g: Graph, h: Graph, star: str, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> WellBehavedReport:
    """Is m_k(G*H) attained by a boxast construction over factor k-matchings?

    Decided through the unmatched-count identity u_k(G*H) = u_k(G) u_k(H)
    with all three numbers from exact oracle runs. Evidence carries the
    maximum factor matchings and the boxast built from them, in both
    orientations.
    """
    p, rp = _product_query(g, h, star, k, "boxast", budget)
    rg = cached_query(g, k, WITNESS, budget)
    rh = cached_query(h, k, WITNESS, budget)
    exhaustive = rg.exhaustive and rh.exhaustive and rp.exhaustive
    verdict = (rp.unmatched == rg.unmatched * rh.unmatched) if exhaustive else None
    gh = boxast(p, rg.witness, rh.witness, orientation="gh")
    hg = boxast(p, rg.witness, rh.witness, orientation="hg")
    evidence = {
        "product": _report_numbers(rp),
        "left": _report_numbers(rg),
        "right": _report_numbers(rh),
        "construction": {
            "gh": {"size": len(gh.edges), "condition": gh.classification.condition},
            "hg": {"size": len(hg.edges), "condition": hg.classification.condition},
        },
    }
    return WellBehavedReport("boxast", star, k, verdict, evidence, exhaustive)


def check_circledast(
    g: Graph, h: Graph, star: str, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> WellBehavedReport:
    """Is m_k(G*H) attained by a circledast construction?

    Searches the factor regimes in the canonical order M1.a, M1.b, M2.a,
    M2.b, M3, M4 for a pair whose unmatched counts satisfy
    u_G u_H = u_k(G*H); the first hit becomes the evidence witness.
    """
    _, rp = _product_query(g, h, star, k, "circledast", budget)

    # candidate streams per regime: (tag, m_g, m_h, u_g, u_h) tuples
    def stream():
        ones_g = _k_matchings(g, 1)
        ones_h = _k_matchings(h, 1)
        ks_g = _k_matchings(g, k)
        ks_h = _k_matchings(h, k)
        for m_g in ks_g:
            if len(m_g) * 2 == k * g.n:  # perfect k-matching on the left
                for m_h in ones_h:
                    if m_h:
                        yield "M1.a", m_g, m_h, 0, h.n - 2 * len(m_h)
        for m_g in ks_g:
            if m_g:
                yield "M1.b", m_g, (), g.n - 2 * len(m_g) // k, h.n
        for m_g in ones_g:
            if m_g:
                for m_h in ks_h:
                    if len(m_h) * 2 == k * h.n:
                        yield "M2.a", m_g, m_h, g.n - 2 * len(m_g), 0
        for m_h in ks_h:
            if m_h:
                yield "M2.b", (), m_h, g.n, h.n - 2 * len(m_h) // k
        if k == 1:
            for m_g in ones_g:
                for m_h in ones_h:
                    yield "M3", m_g, m_h, g.n - 2 * len(m_g), h.n - 2 * len(m_h)
        for k_g, k_h in _divisor_splits(k):
            for m_g in _k_matchings(g, k_g):
                if len(m_g) * 2 == k_g * g.n:
                    for m_h in _k_matchings(h, k_h):
                        if len(m_h) * 2 == k_h * h.n:
                            yield "M4", m_g, m_h, 0, 0

    found = None
    for tag, m_g, m_h, u_g, u_h in stream():
        if u_g * u_h == rp.unmatched:
            found = {
                "condition": tag,
                "m_g": list(m_g),
                "m_h": list(m_h),
                "u_g": u_g,
                "u_h": u_h,
            }
            break
    evidence = {"product": _report_numbers(rp), "witness": found}
    verdict = (found is not None) if rp.exhaustive else None
    return WellBehavedReport("circledast", star, k, verdict, evidence, rp.exhaustive)


def check_ast(
    g: Graph, h: Graph, star: str, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> WellBehavedReport:
    """Is m_k(G*H) attained by a diagonals-only construction?

    Tries every factor split k_G k_H = k in ascending k_G and compares
    m_k(G*H) with 2 m_{k_G}(G) m_{k_H}(H).
    """
    _, rp = _product_query(g, h, star, k, "ast", budget)
    attempts = []
    winner = None
    all_settled = True
    for k_g, k_h in _divisor_splits(k):
        rg = cached_query(g, k_g, WITNESS, budget)
        rh = cached_query(h, k_h, WITNESS, budget)
        settled = rp.exhaustive and rg.exhaustive and rh.exhaustive
        hit = rp.size == 2 * rg.size * rh.size
        attempts.append(
            {
                "k_g": k_g,
                "k_h": k_h,
                "left_size": rg.size,
                "right_size": rh.size,
                "product_size": rp.size,
                "attained": hit if settled else None,
            }
        )
        if settled and hit and winner is None:
            winner = {"k_g": k_g, "k_h": k_h, "m_g": list(rg.witness), "m_h": list(rh.witness)}
        all_settled = all_settled and settled
    verdict = True if winner is not None else False if all_settled else None
    evidence = {"product": _report_numbers(rp), "splits": attempts, "witness": winner}
    return WellBehavedReport("ast", star, k, verdict, evidence, all_settled)


CHECKERS = {"boxast": check_boxast, "ast": check_ast, "circledast": check_circledast}

# the seven characterizations of the boxast flavor, in equivalence_suite's order
CONDITIONS = (
    "definition",
    "all-max-pairs-gh",
    "all-max-pairs-hg",
    "size-left-formula",
    "size-right-formula",
    "size-product-formula",
    "unmatched-product",
)


@dataclass
class _PairSets:
    """The boxast sets of a row's pairs of maximum factor k-matchings in
    one orientation, built in pair order as far as some cell has asked:
    the pairs not yet built, (size, uniform degree) of each built set,
    and every index pair of the built sets."""

    pending: Iterator[tuple[FactorForm, FactorForm]]
    facts: list[tuple[int, int | None]] = field(default_factory=list)
    union: set[tuple[int, int]] = field(default_factory=set)


class _Row:
    """The suite's three cells of one (g, h, k, budget); see `cached_row`.

    The row builds each pair's boxast set once per orientation, for all
    its cells, and checks it there for repeated pairs and degrees; each
    cell checks the sets' pairs against its own product's edges and
    their sizes against its own maximum (`all_max_pairs`)."""

    def __init__(self, g: Graph, h: Graph, k: int, budget: int):
        self.g, self.h, self.k, self.budget = g, h, k, budget
        self.cells: dict[str, EquivalenceReport] = {}
        # the size-only report of each star's product, once its cell asked
        self.sizes: dict[str, OracleReport] = {}
        self._sets: dict[str, _PairSets] = {}
        # the factor witnesses' forms and their gh set, until the gh pair
        # sets reach that pair
        self._seed: tuple[tuple[FactorForm, FactorForm], list[tuple[int, int]]] | None = None

    def size_query(
        self, p: ProductGraph, members: set[tuple[int, int]], rg: OracleReport, rh: OracleReport
    ) -> OracleReport:
        """The size-only report of the cell's product p, whose edge pairs
        are `members`, seeded from the witness of the largest product
        below it whose cell is answered (their vertices share one index
        order and their edges nest, so that witness is a k-matching of
        p), else from the boxast of the factor witnesses, a k-matching of
        every boxast star, checked against `members` like every set the
        suite constructs."""
        below = [star for star in _NESTED[: _NESTED.index(p.kind)] if star in self.sizes]
        if below:
            start = self.sizes[below[-1]].witness
        else:
            pair = factor_form(self.g, rg.witness), factor_form(self.h, rh.witness)
            copies, fill = boxast_parts(p, *pair, "gh")
            keys = copies + fill
            require_members(members, keys)
            self._seed = pair, keys
            vs = p.graph.vertices
            start = [(vs[a], vs[b]) for a, b in keys]
        rp = max_k_matching(p.graph, self.k, budget=self.budget, witness=False, start=start)
        self.sizes[p.kind] = rp
        return rp

    def all_max_pairs(
        self, p: ProductGraph, members: set[tuple[int, int]], size: int, orientation: str
    ) -> bool:
        """Conditions 2 and 3 for the cell of p, whose edge pairs are
        `members` and whose maximum is `size`: every pair's set in
        `orientation` is a k-matching of that size. It stops at the first
        set that is not, as a lone cell would, then checks every set the
        row has built against `members`."""
        held = all(
            uniform in (0, self.k) and count == size
            for count, uniform in self._pair_facts(p, orientation)
        )
        require_members(members, self._sets[orientation].union)
        return held

    def _pair_facts(self, p: ProductGraph, orientation: str) -> Iterator[tuple[int, int | None]]:
        if not self._sets:
            # each maximum factor k-matching in index form, once per row
            forms = [
                [factor_form(f, m) for m in _maximum_k_matchings(f, self.k)]
                for f in (self.g, self.h)
            ]
            self._sets = {o: _PairSets(iproduct(*forms)) for o in ("gh", "hg")}
        sets = self._sets[orientation]
        i = 0
        while i < len(sets.facts) or self._build_next(p, sets, orientation):
            yield sets.facts[i]
            i += 1

    def _build_next(self, p: ProductGraph, sets: _PairSets, orientation: str) -> bool:
        pair = next(sets.pending, None)
        if pair is None:
            return False
        if orientation == "gh" and self._seed is not None and self._seed[0] == pair:
            keys, self._seed = self._seed[1], None
        else:
            copies, fill = boxast_parts(p, *pair, orientation)
            keys = copies + fill
        sets.union |= distinct_pairs(keys)
        _, uniform = index_degrees(p.graph.n, keys)
        sets.facts.append((len(keys), uniform))
        return True

    def release(self) -> None:
        """Drop the pair sets once every cell is answered."""
        self._sets.clear()
        self._seed = None


# the boxast stars with nested edge sets: E(cartesian) within E(strong)
# within E(lex), on one vertex index order
_NESTED = ("cartesian", "strong", "lex")


@lru_cache(maxsize=MEMO_SIZE)
def cached_row(g: Graph, h: Graph, k: int, budget: int) -> _Row:
    """The suite's row of (g, h, k) under `budget`, whose cells
    `equivalence_suite` fills on first use. Pass all four arguments
    positionally, so that equal rows share one key."""
    return _Row(g, h, k, budget)


def equivalence_suite(
    g: Graph, h: Graph, star: str, k: int, budget: int = DEFAULT_NODE_BUDGET
) -> EquivalenceReport:
    """Evaluate the seven equivalent characterizations independently.

    1. definition: some factor k-matching pair realizes m_k(G*H) as the
       larger boxast orientation (sizes via the verified size identity,
       quantified over the achievable unmatched-count pairs).
    2./3. all-max-pairs: for every pair of maximum factor k-matchings the
       constructed boxast (gh resp. hg) is a valid k-matching of the
       product of maximum size. Each pair's set is built as product index
       pairs by `boxast_parts` and validated explicitly: each pair is a
       product edge and occurs once (else InvariantViolation), every
       positive degree is k, and the count is the product's maximum size.
    4./5. size formulas anchored on one factor's maximum.
    6. the product size formula in n and u.
    7. the unmatched-count identity.

    The report is the cell `star` of the row `cached_row(g, h, k,
    budget)`, computed on the first call and shared after it. A row
    builds each cell's product once and each pair's boxast set once per
    orientation for its three cells (see `_Row`). Each cell's size-only
    product query is seeded from the answered cell below it, else from
    the factor witnesses' boxast (see `_Row.size_query`), so a lone
    strong or lex cell asks nothing of the cells below it.
    """
    _check_star(star, k, "boxast")
    row = cached_row(g, h, k, budget)
    cell = row.cells.get(star)
    if cell is None:
        cell = row.cells[star] = _suite_cell(row, star)
        if len(row.cells) == len(_NESTED):
            row.release()
    return cell


def _suite_cell(row: _Row, star: str) -> EquivalenceReport:
    g, h, k, budget = row.g, row.h, row.k, row.budget
    rg = cached_query(g, k, WITNESS, budget)
    rh = cached_query(h, k, WITNESS, budget)
    p = product(g, h, star)
    members = set(p.graph.pairs)
    rp = row.size_query(p, members, rg, rh)
    exhaustive = rg.exhaustive and rh.exhaustive and rp.exhaustive
    numbers = {
        "left": {"n": g.n, "size": rg.size, "unmatched": rg.unmatched},
        "right": {"n": h.n, "size": rh.size, "unmatched": rh.unmatched},
        "product": {"n": p.graph.n, "size": rp.size, "unmatched": rp.unmatched},
    }
    if not exhaustive:
        conditions = dict.fromkeys(CONDITIONS)
        return EquivalenceReport(star, k, conditions, None, numbers, False)

    us_g, us_h = achievable_unmatched(g, k), achievable_unmatched(h, k)
    definition = any(k * (g.n * h.n - u_g * u_h) == 2 * rp.size for u_g in us_g for u_h in us_h)

    conditions = dict(zip(CONDITIONS, (
        definition,
        row.all_max_pairs(p, members, rp.size, "gh"),
        row.all_max_pairs(p, members, rp.size, "hg"),
        rp.size == rg.size * h.n + rh.size * rg.unmatched,
        rp.size == rh.size * g.n + rg.size * rh.unmatched,
        2 * rp.size == k * (g.n * h.n - rg.unmatched * rh.unmatched),
        rp.unmatched == rg.unmatched * rh.unmatched,
    )))
    agree = len(set(conditions.values())) == 1
    return EquivalenceReport(star, k, conditions, agree, numbers, True)
