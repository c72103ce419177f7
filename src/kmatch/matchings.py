"""k-matchings and the exact search oracle.

A k-matching of G is an edge set M such that in the subgraph (V, M) every
vertex has degree 0 or k. Vertices of degree k are matched, the rest are
unmatched; M is perfect when nothing is unmatched and near-perfect when
exactly one vertex is. For a valid k-matching |M| = k(n - u)/2, so all
maximum k-matchings of a graph strand the same number of vertices.

The oracle is staged. A capped include-first branch-and-bound settles
most instances outright. A witness query searches the canonical edge
order and reports the first maximum it visits, which is the
lexicographically smallest one. A size-only query searches the edges in
degree order (low-degree vertices first), which finds the optimum in far
fewer nodes, and reports some maximum. Instances that outgrow the cap go
to an integer program (one binary per edge, one per vertex, degree =
k * matched) that proves the exact size. Its continuous relaxation runs
first: an upper bound computed exactly from the relaxation's duals, and
the relaxation's point when it rounds to a k-matching that meets the
bound, settle many of those calls without the integer program. A
witness query then recovers the canonical witness by lexicographic
fixing. Each fixing probe is settled by propagation when it can be, else
by the same search run as a capped probe toward the known size, else by
the relaxation (a bound below the size drops the edge, a point of that
size keeps it), and only else by the program. The budget caps total
effort, counting search nodes (probe searches included, a capped search
charged its cap) plus a flat charge per relaxation or program solve; an
exhausted budget degrades the report to exhaustive=False instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EdgeNotInHost,
    InvalidK,
    InvalidParameter,
    InvariantViolation,
    KmatchError,
    SizeLimitExceeded,
)
from .graphs import Edge, Graph, Vertex

DEFAULT_NODE_BUDGET = 10_000_000
ENUM_MAX_EDGES = 20


def check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidK(f"k must be a positive integer, got {k!r}")


def canonical_matching(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], error: type[KmatchError] = EdgeNotInHost
) -> tuple[Edge, ...]:
    """Canonicalize an edge set against its host graph.

    Endpoint order and list order are normalized; duplicates collapse
    (inputs are sets). Unknown edges raise the given error type.
    """
    keyed = {}
    idx = g.index
    for pair in m:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise error(f"{pair!r} is not an edge")
        e = g.edge_between(u, v)
        if e is None:
            raise error(f"({u!r}, {v!r}) is not an edge of the host graph")
        keyed[(idx[e[0]], idx[e[1]])] = e
    return tuple(e for _, e in sorted(keyed.items()))


@dataclass(frozen=True)
class DegreeProfile:
    """An edge set in canonical form with the degrees of (V, M).

    `uniform` is the unique k for which the set is a k-matching: 0 for the
    empty set (a k-matching for every k), None when the positive degrees
    differ, so the set is no k-matching at all.
    """

    edges: tuple[Edge, ...]
    degrees: dict[Vertex, int]
    unmatched: tuple[Vertex, ...]
    uniform: int | None

    @property
    def valid(self) -> bool:
        return self.uniform is not None

    @property
    def empty(self) -> bool:
        return self.uniform == 0

    @property
    def perfect(self) -> bool:
        return self.uniform is not None and self.uniform >= 1 and not self.unmatched


def degree_profile(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], error: type[KmatchError] = EdgeNotInHost
) -> DegreeProfile:
    """Canonicalize an edge set once and derive its degree facts."""
    edges = canonical_matching(g, m, error=error)
    deg = {v: 0 for v in g.vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    positive = {d for d in deg.values() if d > 0}
    uniform = None if len(positive) > 1 else max(positive, default=0)
    unmatched = tuple(v for v in g.vertices if deg[v] == 0)
    return DegreeProfile(edges=edges, degrees=deg, unmatched=unmatched, uniform=uniform)


def validate_k_matching(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], k: int
) -> tuple[bool, dict[Vertex, int]]:
    """Check the degree-0-or-k condition; returns (ok, per-vertex degrees)."""
    check_k(k)
    profile = degree_profile(g, m)
    return profile.uniform in (0, k), profile.degrees


@dataclass(frozen=True)
class MatchingClass:
    """Outcome of classify_matching; flags are None when `valid` is False
    (or, for `maximal`, when the maximality probe ran out of budget)."""

    valid: bool
    k: int
    size: int
    unmatched: tuple[Vertex, ...]
    perfect: bool | None
    near_perfect: bool | None
    maximal: bool | None


def classify_matching(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], k: int, budget: int = DEFAULT_NODE_BUDGET
) -> MatchingClass:
    """Validity, perfection, near-perfection, and maximality of an edge set.

    Maximality reduces to a small oracle call: M is maximal exactly when
    the subgraph induced by its unmatched vertices has no non-empty
    k-matching (matched vertices are saturated, so any strict superset
    grows inside that subgraph).
    """
    check_k(k)
    profile = degree_profile(g, m)
    un, size = profile.unmatched, len(profile.edges)
    if profile.uniform not in (0, k):
        return MatchingClass(False, k, size, un, None, None, None)
    maximal: bool | None
    rest = max_k_matching(g.induced(un), k, budget=budget)
    if rest.size > 0:
        maximal = False
    elif rest.exhaustive:
        maximal = True
    else:
        maximal = None
    return MatchingClass(
        valid=True,
        k=k,
        size=size,
        unmatched=un,
        perfect=not un,
        near_perfect=len(un) == 1,
        maximal=maximal,
    )


# ---------------------------------------------------------------------------
# the exact oracle


@dataclass(frozen=True)
class OracleReport:
    """Result of an exact maximum k-matching search.

    `size` and `unmatched` describe the best k-matching found; they equal
    m_k and u_k exactly when `exhaustive` is True, and then `witness` is
    the lexicographically smallest maximum under the canonical edge order.
    A size-only query (witness=False) reports some maximum instead, in
    canonical edge order but not the canonical one. `nodes` is the effort
    spent against the budget: search nodes, those of the witness
    recovery's probe searches included, plus a flat charge per optimizer
    call.
    """

    k: int
    size: int
    unmatched: int
    witness: tuple[Edge, ...]
    exhaustive: bool
    nodes: int


@dataclass
class _SearchOutcome:
    best_size: int
    best: list[int] | None
    nodes: int
    settled: bool


def _degree_order(g: Graph) -> list[int]:
    """Canonical edge indices in degree order.

    Vertices are ranked by ascending degree, ties broken by canonical
    index, and edges sorted by their ranked endpoint pair. Low-degree
    vertices have the fewest ways to reach degree k, so deciding their
    edges first settles forced choices early; on the corpus products the
    search then finds the optimum in far fewer nodes than in canonical
    order.
    """
    idx = g.index
    by_degree = sorted(range(g.n), key=lambda i: (g.degree(g.vertices[i]), i))
    rank = [0] * g.n
    for r, i in enumerate(by_degree):
        rank[i] = r
    pairs = [sorted((rank[idx[u]], rank[idx[v]])) for u, v in g.edges]
    return sorted(range(g.m), key=pairs.__getitem__)


def _search_maximum(
    g: Graph,
    k: int,
    node_cap: int,
    order: list[int] | None = None,
    forced: Sequence[int] = (),
    target: int | None = None,
) -> _SearchOutcome:
    """Include-first branch-and-bound over an edge order.

    `order` lists canonical edge indices in the order they are decided;
    the default is the canonical order. `best` always holds canonical
    indices, ascending.

    A probe passes `forced`, edges that are in from the start, and a
    `target` size that no k-matching exceeds. Then `order` lists only the
    edges left to decide; an edge in neither list is out. Sizes count the
    forced edges. The incumbent starts at target - 1, so the bound prunes
    every branch that cannot reach the target, and the search stops at
    the first leaf that does. A settled probe without a leaf proves that
    no k-matching of the target size contains the forced edges and avoids
    the others. A vertex that the forced edges push above k, or leave
    stuck between 0 and k with too few edges to decide, has no leaf at
    all: that is settled before the root is entered.

    Bookkeeping per vertex: deg (chosen incident edges), rem (undecided
    incident edges), cap = min(k - deg, rem) summed into `slack`, and
    `cand`, the number of vertices that can still reach degree k
    (deg + rem >= k). A leaf is only reachable with every vertex at
    degree 0 or k, because a vertex stuck strictly between is pruned as
    soon as deg + rem < k. Two admissible bounds prune: chosen + slack // 2
    (every further edge eats two units of slack) and a parity-corrected
    k * t // 2 over the t candidates (only candidates can end matched, and
    k odd forces an even number of matched vertices).

    Equal-size solutions are visited in include-first order and only
    strict improvements replace the incumbent. Over the canonical order
    `best` is therefore the lexicographically smallest maximum whenever
    `settled` is True; over any other order it is some maximum.

    The walk runs on an explicit stack of (edge position, phase) frames,
    so its depth is not bounded by the interpreter's recursion limit. A
    frame enters a node, returns from its include branch, or returns from
    its exclude branch. Nodes are visited in exactly the order of the
    include-first recursion, so `best`, `best_size` and `nodes` are the
    ones that recursion would give. At the cap the loop stops where it
    is: the outcome is then unsettled and the bookkeeping is dropped.
    """
    idx = g.index
    canonical = [(idx[u], idx[v]) for u, v in g.edges]
    ends = canonical if order is None else [canonical[j] for j in order]
    m = len(ends)
    rem = [0] * g.n
    for a, b in ends:
        rem[a] += 1
        rem[b] += 1
    deg = [0] * g.n
    for j in forced:
        for x in canonical[j]:
            deg[x] += 1
    base = len(forced)
    best_size = -1 if target is None else target - 1
    if any(d > k or 0 < d < k and d + r < k for d, r in zip(deg, rem)):
        return _SearchOutcome(best_size=best_size, best=None, nodes=0, settled=True)
    stop = m + base + 1 if target is None else target
    cap = [r if r < k - d else k - d for d, r in zip(deg, rem)]
    slack = sum(cap)
    cand = sum(1 for d, r in zip(deg, rem) if d + r >= k)
    chosen: list[int] = []
    best: list[int] | None = None
    nodes = 0
    settled = True
    odd_k = k % 2 == 1
    short = k - 1  # deg + rem of a vertex that just stopped being a candidate

    def refresh(x: int) -> int:
        """Recompute cap[x]; returns the change in slack."""
        new = k - deg[x]  # never negative: an edge is only taken below k
        r = rem[x]
        if r < new:
            new = r
        old = cap[x]
        cap[x] = new
        return new - old

    def bound(size: int, slack: int, cand: int) -> int:
        ub = size + slack // 2
        t = cand - 1 if odd_k and cand % 2 == 1 else cand
        vb = k * t // 2
        return ub if ub < vb else vb

    enter, included, excluded = 0, 1, 2
    stack = [(0, enter)]
    while stack:
        t, phase = stack.pop()
        if phase == enter:
            nodes += 1
            if nodes > node_cap:
                settled = False
                break
            if t == m:
                if base + len(chosen) > best_size:
                    best_size = base + len(chosen)
                    best = chosen.copy()
                    if best_size >= stop:
                        break
                continue
            a, b = ends[t]
            for x in (a, b):
                rem[x] -= 1
                if deg[x] + rem[x] == short:
                    cand -= 1
                slack += refresh(x)
            if deg[a] < k and deg[b] < k:
                for x in (a, b):
                    deg[x] += 1
                    if deg[x] + rem[x] == k:
                        cand += 1
                    slack += refresh(x)
                chosen.append(t)
                stack.append((t, included))
                da, db = deg[a], deg[b]
                if (
                    (da == k or da + rem[a] >= k)
                    and (db == k or db + rem[b] >= k)
                    and bound(base + len(chosen), slack, cand) > best_size
                ):
                    stack.append((t + 1, enter))
                continue
            # the edge cannot be included: go straight to the exclude branch.
        elif phase == included:
            a, b = ends[t]
            chosen.pop()
            for x in (b, a):
                deg[x] -= 1
                if deg[x] + rem[x] == short:
                    cand -= 1
                slack += refresh(x)
        else:
            a, b = ends[t]
            for x in (b, a):
                if deg[x] + rem[x] == short:
                    cand += 1
                rem[x] += 1
                slack += refresh(x)
            continue
        stack.append((t, excluded))
        da, db = deg[a], deg[b]
        if (
            (da == 0 or da == k or da + rem[a] >= k)
            and (db == 0 or db == k or db + rem[b] >= k)
            and bound(base + len(chosen), slack, cand) > best_size
        ):
            stack.append((t + 1, enter))

    if order is not None and best is not None:
        best = sorted([*forced, *(order[t] for t in best)])
    return _SearchOutcome(best_size=best_size, best=best, nodes=nodes, settled=settled)


class _SizeProgram:
    """The 0-or-k degree condition as an integer program (HiGHS).

    One binary per undecided edge, one per vertex; the constraint per
    vertex says the chosen degree equals k times the matched flag, which
    is the condition verbatim. Decided edges are substituted out of the
    program (column dropped, forced degree moved to the right-hand side).
    `solve` answers the integer program, `relax` its continuous
    relaxation over the same substitution; the relaxation's bound is
    exact whatever the solver's float error, see `relax`.
    Presolve stays off: the bundled solver's presolve mishandles these
    equality systems and can claim an infeasible instance is optimal.
    The relative gap is 0: at HiGHS's default of 1e-4 a solve may stop
    one edge short of the optimum once that exceeds 10,000 edges.
    Every returned point is re-validated against the degree condition.
    Solves are deterministic for a fixed input.
    """

    def __init__(self, g: Graph, k: int):
        idx = g.index
        self.k = k
        self.m, self.n = g.m, g.n
        self.ends = [(idx[u], idx[v]) for u, v in g.edges]

    def _degree_matrix(self, free: list[int]):
        """Sparse rows "chosen degree - k * matched flag", one per vertex,
        over the columns of the `free` edges followed by the vertex flags."""
        from scipy import sparse

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for col, j in enumerate(free):
            a, b = self.ends[j]
            rows.extend((a, b))
            cols.extend((col, col))
            vals.extend((1.0, 1.0))
        for i in range(self.n):
            rows.append(i)
            cols.append(len(free) + i)
            vals.append(-float(self.k))
        return sparse.csc_matrix((vals, (rows, cols)), shape=(self.n, len(free) + self.n))

    def _substitute(self, fixed: dict[int, int]) -> tuple[list[int], list[int], list[int]]:
        """The undecided edges, the edges fixed in, and the right-hand
        side of each degree row: minus the degree the fixed-in edges give."""
        free = [j for j in range(self.m) if j not in fixed]
        ones = [j for j, value in fixed.items() if value]
        forced = [0] * self.n
        for j in ones:
            a, b = self.ends[j]
            forced[a] += 1
            forced[b] += 1
        return free, ones, [-f for f in forced]

    def solve(self, fixed: dict[int, int]) -> tuple[int, frozenset[int]] | None:
        """Maximum size and one witness honoring `fixed`; None if infeasible."""
        from scipy.optimize import Bounds, LinearConstraint, milp

        free, ones, rhs = self._substitute(fixed)
        res = milp(
            c=[-1.0] * len(free) + [0.0] * self.n,
            constraints=LinearConstraint(self._degree_matrix(free), rhs, rhs),
            integrality=[1] * (len(free) + self.n),
            bounds=Bounds(0.0, 1.0),
            options={"presolve": False, "mip_rel_gap": 0},
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise InvariantViolation(f"size solve failed: {res.message}")
        taken = [j for col, j in enumerate(free) if res.x[col] > 0.5]
        if len(taken) != round(-res.fun):
            raise InvariantViolation(
                f"size solve returned {len(taken)} edges for objective {-res.fun}"
            )
        chosen = frozenset(ones) | frozenset(taken)
        if self.off_condition(chosen):
            raise InvariantViolation(f"size solve returned a point off the 0-or-{self.k} condition")
        return len(chosen), chosen

    def off_condition(self, chosen: Iterable[int]) -> bool:
        """True when the edges `chosen` leave a vertex at a degree other
        than 0 or k. A plain test, not an assert, so it runs under -O."""
        degrees = [0] * self.n
        for j in chosen:
            a, b = self.ends[j]
            degrees[a] += 1
            degrees[b] += 1
        return any(d != 0 and d != self.k for d in degrees)

    def relax(self, fixed: dict[int, int]) -> tuple[int, frozenset[int] | None] | None:
        """The continuous relaxation of `solve(fixed)`; None if infeasible.

        Otherwise returns (bound, point). `bound` is an upper bound on the
        size of every k-matching honoring `fixed`, exact by construction:
        for any multipliers lam on the degree rows, weak duality over the
        [0, 1] box gives

            size - ones <= -(lam . b + sum_j min(0, c_j - a_j . lam)),

        and the right-hand side is evaluated in exact rational arithmetic
        from the solver's equality duals, so float error can only make
        the bound weaker, never wrong. `point` is the solver's point
        rounded to 0/1, returned only when it has exactly `bound` edges
        and passes `off_condition` (plain tests, so they run under -O):
        it is then a k-matching that meets an upper bound, a maximum.
        """
        from scipy.optimize import linprog

        free, ones, rhs = self._substitute(fixed)
        res = linprog(
            c=[-1.0] * len(free) + [0.0] * self.n,
            A_eq=self._degree_matrix(free),
            b_eq=rhs,
            bounds=(0.0, 1.0),
            method="highs",
            options={"presolve": False},
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise InvariantViolation(f"relaxation solve failed: {res.message}")
        # the duals as integers over one power-of-two denominator: every
        # finite float is a dyadic rational, and any multiplier is valid.
        ratios = [x.as_integer_ratio() if math.isfinite(x) else (0, 1) for x in res.eqlin.marginals]
        scale = max(d for _, d in ratios)
        lam = [p * (scale // d) for p, d in ratios]
        # scale * (-lam . b) + the box terms of the edge and flag columns
        total = sum(-lam[i] * b for i, b in enumerate(rhs) if b)
        for j in free:
            a, b = self.ends[j]
            total += max(0, scale + lam[a] + lam[b])
        total += sum(max(0, -self.k * x) for x in lam)
        bound = total // scale + len(ones)
        taken = [j for col, j in enumerate(free) if res.x[col] > 0.5]
        point = None
        if len(ones) + len(taken) == bound:
            chosen = frozenset(ones) | frozenset(taken)
            if not self.off_condition(chosen):
                point = chosen
        return bound, point


# effort accounting: one optimizer call is charged like this many search
# nodes, which is roughly what the two cost in wall time.
_SOLVE_EFFORT = 10_000
# the plain search gives up and hands over to the optimizer at this depth.
_SEARCH_CAP = 4_000


def max_k_matching(
    g: Graph, k: int, budget: int = DEFAULT_NODE_BUDGET, witness: bool = True
) -> OracleReport:
    """Exact maximum k-matching.

    A capped branch-and-bound settles most instances outright. With
    `witness` on it searches the canonical edge order, so its first
    maximum is the lexicographically smallest one. When the search gives
    up, the relaxation runs: a point of the relaxation that rounds to a
    k-matching meeting its exact bound is a maximum, and a size-only
    call is also settled when the search's best meets the bound;
    otherwise the integer program proves the maximum size. The canonical
    witness is then recovered by fixing edges in canonical order, keeping
    an edge exactly when some maximum matching still contains it. Each
    such probe goes through four stages, and the first that decides it
    settles it: propagation (an endpoint of the edge already has degree k,
    or cannot reach k from the kept edges, the edge and the undecided
    ones), a search capped at `_SEARCH_CAP` nodes for a maximum over the
    undecided edges in degree order, the relaxation (its bound below the
    maximum drops the edge, its point keeps it), and a solve of the
    integer program. With `witness` off the search runs in degree order,
    which settles far more instances within the cap, and every stage
    reports just some maximum matching; size and unmatched counts are
    exact either way. `budget` caps the total effort: search nodes,
    probe searches included and a capped search charged its cap, plus a
    flat charge per relaxation or integer-program solve, so `nodes`
    never exceeds it. When it runs out the report degrades to
    exhaustive=False carrying the best matching found so far.
    """
    check_k(k)
    if budget < 1:
        raise InvalidParameter(f"budget must be at least 1, got {budget}")
    max_deg = max((g.degree(v) for v in g.vertices), default=0)
    if k > max_deg:
        # no vertex can reach degree k, so the empty matching is the maximum.
        return OracleReport(k=k, size=0, unmatched=g.n, witness=(), exhaustive=True, nodes=0)

    def report(size: int, edges: tuple[Edge, ...], exhaustive: bool, spent: int) -> OracleReport:
        if (2 * size) % k:
            raise InvariantViolation(f"a {k}-matching cannot have {size} edges")
        return OracleReport(
            k=k,
            size=size,
            unmatched=g.n - (2 * size) // k,
            witness=edges,
            exhaustive=exhaustive,
            nodes=spent,
        )

    label_edges = g.edges
    # the canonical order makes the first maximum the canonical witness;
    # a size-only call is free to search in the faster degree order.
    order = None if witness else _degree_order(g)
    cap = min(_SEARCH_CAP, budget)
    search = _search_maximum(g, k, cap, order)
    if search.settled:
        found = tuple(label_edges[i] for i in search.best or [])
        return report(max(search.best_size, 0), found, True, search.nodes)
    # a capped search counts the node it stopped at; charge only the cap.
    spent = cap
    fallback_size = max(search.best_size, 0)
    fallback = tuple(label_edges[i] for i in search.best or [])

    program = _SizeProgram(g, k)
    if spent + _SOLVE_EFFORT > budget:
        return report(fallback_size, fallback, False, spent)
    spent += _SOLVE_EFFORT
    # the empty matching is feasible, so an infeasible answer is not
    # trusted: the edge count is a bound that needs no solver.
    bound, sol = program.relax({}) or (g.m, None)
    if not witness and search.best_size >= bound:
        # the best matching the search did reach meets the bound.
        return report(fallback_size, fallback, True, spent)
    if sol is not None:
        optimum = bound
    else:
        if spent + _SOLVE_EFFORT > budget:
            return report(fallback_size, fallback, False, spent)
        spent += _SOLVE_EFFORT
        optimum, sol = program.solve({})
    if optimum == 0:
        return report(0, (), True, spent)
    if not witness:
        return report(optimum, tuple(label_edges[i] for i in sorted(sol)), True, spent)

    # lexicographic recovery: walk the canonical order and keep an edge iff
    # some maximum matching agrees with every decision so far and contains
    # it. `sol` always witnesses the decisions made up to this point, so
    # its members are kept for free. Any other edge j is a probe, settled
    # by the first stage that can: propagation at j's endpoints, a capped
    # search for a maximum over the edges after j, the relaxation, the
    # solver.
    ends = program.ends
    kept = [0] * g.n  # degree from the kept edges
    ahead = [0] * g.n  # incident edges after the current one
    for a, b in ends:
        ahead[a] += 1
        ahead[b] += 1
    # the search's best edge order; a yes/no probe may decide in any order.
    tail = _degree_order(g)

    def partial() -> OracleReport:
        # sol is a genuine maximum, just not the canonical one.
        return report(optimum, tuple(label_edges[i] for i in sorted(sol)), False, spent)

    fixed: dict[int, int] = {}
    ones = 0
    for j in range(g.m):
        if ones == optimum:
            break
        a, b = ends[j]
        ahead[a] -= 1
        ahead[b] -= 1
        keep = j in sol
        if not keep and all(kept[x] < k <= kept[x] + 1 + ahead[x] for x in (a, b)):
            room = budget - spent
            if room < 1:
                return partial()
            forced = [i for i, v in fixed.items() if v] + [j]
            order = [i for i in tail if i > j]
            cap = min(_SEARCH_CAP, room)
            probe = _search_maximum(g, k, cap, order, forced, optimum)
            spent += min(probe.nodes, cap)
            if probe.settled and probe.best is not None:
                if len(probe.best) != optimum or program.off_condition(probe.best):
                    raise InvariantViolation(
                        f"probe search returned a leaf off the 0-or-{k} condition"
                    )
                keep, sol = True, frozenset(probe.best)
            elif not probe.settled:
                if spent + _SOLVE_EFFORT > budget:
                    return partial()
                spent += _SOLVE_EFFORT
                # a bound below the optimum drops j. An infeasible answer
                # decides nothing and goes on to the integer program.
                bound, point = program.relax({**fixed, j: 1}) or (g.m, None)
                if bound >= optimum and point is not None:
                    # a k-matching with j of at most the optimum's size
                    # that meets a bound of at least it: a maximum.
                    keep, sol = True, point
                elif bound >= optimum:
                    if spent + _SOLVE_EFFORT > budget:
                        return partial()
                    spent += _SOLVE_EFFORT
                    attempt = program.solve({**fixed, j: 1})
                    if attempt is not None and attempt[0] == optimum:
                        keep, sol = True, attempt[1]
        fixed[j] = int(keep)
        if keep:
            ones += 1
            kept[a] += 1
            kept[b] += 1
    if ones != optimum:
        raise InvariantViolation(f"witness recovery kept {ones} of {optimum} edges")
    final = tuple(label_edges[j] for j, v in sorted(fixed.items()) if v == 1)
    return report(optimum, final, True, spent)


def enumerate_k_matchings(g: Graph, k: int) -> Iterator[tuple[Edge, ...]]:
    """All valid k-matchings of g, the empty one included.

    Emitted in include-first order over the canonical edge list (supersets
    of earlier edges come first, the empty set last); the order is
    deterministic. Guarded by an edge-count bound since the output can be
    exponential; k and the bound are checked at the call, not at the first
    item.
    """
    check_k(k)
    if g.m > ENUM_MAX_EDGES:
        raise SizeLimitExceeded(
            f"enumeration supports at most {ENUM_MAX_EDGES} edges, graph has {g.m}"
        )
    return _walk_k_matchings(g, k)


def _walk_k_matchings(g: Graph, k: int) -> Iterator[tuple[Edge, ...]]:
    idx = g.index
    edges = [(idx[u], idx[v]) for u, v in g.edges]
    label_edges = g.edges
    rem = [0] * g.n
    for a, b in edges:
        rem[a] += 1
        rem[b] += 1
    deg = [0] * g.n
    chosen: list[int] = []

    def feasible(x: int) -> bool:
        d = deg[x]
        return d == 0 or d == k or d + rem[x] >= k

    def walk(t: int) -> Iterator[tuple[Edge, ...]]:
        if t == len(edges):
            yield tuple(label_edges[i] for i in chosen)
            return
        a, b = edges[t]
        rem[a] -= 1
        rem[b] -= 1
        if deg[a] < k and deg[b] < k:
            deg[a] += 1
            deg[b] += 1
            chosen.append(t)
            if feasible(a) and feasible(b):
                yield from walk(t + 1)
            chosen.pop()
            deg[a] -= 1
            deg[b] -= 1
        if feasible(a) and feasible(b):
            yield from walk(t + 1)
        rem[a] += 1
        rem[b] += 1

    yield from walk(0)


def maximum_k_matchings(g: Graph, k: int) -> tuple[tuple[Edge, ...], ...]:
    """Every maximum k-matching, by exhaustive enumeration (small graphs)."""
    all_of_them = list(enumerate_k_matchings(g, k))
    best = max(len(m) for m in all_of_them)
    return tuple(m for m in all_of_them if len(m) == best)
