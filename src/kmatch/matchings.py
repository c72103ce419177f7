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
size-only query that is still open restarts the search: up to four
capped searches, in degree order with the tie-break rotated, look for a
matching that meets the smaller of the relaxation's bound and the
search's own parity-corrected root bound. The first one found is a
maximum; a restart that ends without one proves the optimum smaller,
and the program finds it. A witness query recovers the canonical
witness by lexicographic fixing. Each fixing probe is settled by
propagation when it can be, else by the same search run as a capped
probe toward the known size, else by the relaxation (a bound below the
size drops the edge, a point of that size keeps it), and only else by
the program. One budget rule covers every stage: a search is capped at
the budget left and charged the nodes it visits, a relaxation or program
solve is charged a flat amount and runs only if that fits, and a stage
that does not fit ends the query with exhaustive=False and the best
matching found so far instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
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


def edge_keys(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], error: type[KmatchError] = EdgeNotInHost
) -> list[tuple[int, int]]:
    """An edge set as the distinct index pairs of its edges in g, ascending.

    Endpoint order is normalized and duplicates collapse (inputs are
    sets). Unknown edges raise the given error type.
    """
    keys = set()
    idx = g.index
    for pair in m:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise error(f"{pair!r} is not an edge")
        e = g.edge_between(u, v)
        if e is None:
            raise error(f"({u!r}, {v!r}) is not an edge of the host graph")
        keys.add((idx[e[0]], idx[e[1]]))
    return sorted(keys)


def canonical_matching(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], error: type[KmatchError] = EdgeNotInHost
) -> tuple[Edge, ...]:
    """Canonicalize an edge set against its host graph (see `edge_keys`)."""
    vs = g.vertices
    return tuple((vs[a], vs[b]) for a, b in edge_keys(g, m, error))


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


def index_degrees(n: int, keys: Iterable[tuple[int, int]]) -> tuple[list[int], int | None]:
    """The degree of each of n vertices under the index pairs `keys`,
    and their uniform degree as in `DegreeProfile`."""
    deg = [0] * n
    for a, b in keys:
        deg[a] += 1
        deg[b] += 1
    positive = set(deg)
    positive.discard(0)
    return deg, None if len(positive) > 1 else max(positive, default=0)


def keyed_profile(
    g: Graph, keys: Sequence[tuple[int, int]], deg: Sequence[int], uniform: int | None
) -> DegreeProfile:
    """The degree profile of distinct index pairs of edges of g, ascending,
    labelled; `deg` and `uniform` are their `index_degrees`."""
    vs = g.vertices
    return DegreeProfile(
        edges=tuple([(vs[a], vs[b]) for a, b in keys]),
        degrees=dict(zip(vs, deg)),
        unmatched=tuple([v for v, d in zip(vs, deg) if d == 0]),
        uniform=uniform,
    )


def degree_profile(
    g: Graph, m: Iterable[tuple[Vertex, Vertex]], error: type[KmatchError] = EdgeNotInHost
) -> DegreeProfile:
    """Canonicalize an edge set once and derive its degree facts."""
    keys = edge_keys(g, m, error)
    return keyed_profile(g, keys, *index_degrees(g.n, keys))


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
    rest = max_k_matching(g.induced(un), k, budget=budget, witness=False)
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
    spent against the budget: search nodes, those of the size-only
    restarts and the witness recovery's probe searches included, plus a
    flat charge per optimizer call.
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
    # an upper bound on every leaf, taken at the root; -1 when there is none
    root_bound: int


def _degree_order(g: Graph, degree: Sequence[int], rotate: int = 0) -> list[int]:
    """Canonical edge indices in degree order.

    Vertices are ranked by ascending `degree` (from `index_degrees`), ties
    broken by canonical index, and edges sorted by their ranked endpoint
    pair. Low-degree vertices have the fewest ways to reach degree k, so
    deciding their edges first settles forced choices early; on the
    corpus products the search then finds the optimum in far fewer nodes
    than in canonical order. A restart passes `rotate`: the tie-break
    then starts at that canonical index and wraps around.
    """
    n = g.n
    by_degree = sorted(range(n), key=lambda i: (degree[i], (i - rotate) % n))
    rank = [0] * n
    for r, i in enumerate(by_degree):
        rank[i] = r
    ranked = []
    for i, j in g.pairs:
        a, b = rank[i], rank[j]
        ranked.append((a, b) if a < b else (b, a))
    return sorted(range(g.m), key=ranked.__getitem__)


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

    Bookkeeping per vertex: deg (chosen incident edges) and reach (deg
    plus the undecided incident edges). `slack` sums min(k - deg, reach -
    deg) over the vertices, and `cand` counts the vertices that can still
    reach degree k (reach >= k). A leaf is only reachable with every
    vertex at degree 0 or k, because a vertex stuck strictly between is
    pruned as soon as its reach falls below k. Two admissible bounds
    prune: size + slack // 2 (every further edge eats two units of slack)
    and a parity-corrected k * t // 2 over the t candidates (only
    candidates can end matched, and k odd forces an even number of
    matched vertices). The outcome's `root_bound` is the smaller of the
    two at the root; it does not depend on `order`.

    Every decision moves a vertex's term of `slack` by at most one, and
    which way depends on its reach alone: including an edge takes one
    unit from each endpoint and leaves reach and `cand` alone, so an
    include branch has its parent's bound and is entered without a bound
    test; excluding it lowers both endpoints' reach by one. The root's
    bound is tested before the walk, and every other node is entered only
    through a branch whose bound beat the incumbent.

    Equal-size solutions are visited in include-first order and only
    strict improvements replace the incumbent. Over the canonical order
    `best` is therefore the lexicographically smallest maximum whenever
    `settled` is True; over any other order it is some maximum.

    The walk is a loop, not a recursion, so its depth is not bounded by
    the interpreter's recursion limit. The path from the root is one flag
    per decided position, `taken`: True while the position's include
    branch is open, False while its exclude branch is; the taken
    positions are the chosen edges. Backtracking walks the flags back to
    the deepest include branch whose exclude branch beats the incumbent.
    Nodes are visited in exactly the order of the include-first
    recursion, so `best`, `best_size` and `nodes` are the ones that
    recursion would give. At the cap the loop stops where it is: the
    outcome is then unsettled and the bookkeeping is dropped.
    """
    canonical = g.pairs
    ends = canonical if order is None else [canonical[j] for j in order]
    m = len(ends)
    deg = [0] * g.n
    for j in forced:
        for x in canonical[j]:
            deg[x] += 1
    reach = deg.copy()
    for a, b in ends:
        reach[a] += 1
        reach[b] += 1
    size = len(forced)
    best_size = -1 if target is None else target - 1
    if any(d > k or 0 < d and r < k for d, r in zip(deg, reach)):
        return _SearchOutcome(best_size, None, nodes=0, settled=True, root_bound=-1)
    stop = m + size + 1 if target is None else target
    slack = sum(r - d if r < k else k - d for d, r in zip(deg, reach))
    cand = sum(1 for r in reach if r >= k)
    # the parity-corrected candidate bound, by number of candidates
    odd = k & 1
    vertex_bound = [k * (c - (c & odd)) // 2 for c in range(g.n + 1)]
    root_bound = min(size + slack // 2, vertex_bound[cand])
    if m and root_bound <= best_size:
        # the bound prunes both branches of the root: the walk ends there.
        return _SearchOutcome(best_size, None, nodes=1, settled=node_cap >= 1, root_bound=root_bound)
    best: list[int] | None = None
    nodes = 0
    settled = True
    short = k - 1  # reach of a vertex that just stopped being a candidate
    taken = [False] * m  # per decided position: is its include branch open
    t = 0
    while True:
        # enter the node that decides position t
        nodes += 1
        if nodes > node_cap:
            settled = False
            break
        if t < m:
            a, b = ends[t]
            if deg[a] < k and deg[b] < k and reach[a] >= k and reach[b] >= k:
                deg[a] += 1
                deg[b] += 1
                slack -= 2
                size += 1
                taken[t] = True
                t += 1
                continue
            # the edge is not included: go straight to the exclude branch.
            taken[t] = False
            ra = reach[a] - 1
            reach[a] = ra
            if ra < k:
                slack -= 1
                if ra == short:
                    cand -= 1
            rb = reach[b] - 1
            reach[b] = rb
            if rb < k:
                slack -= 1
                if rb == short:
                    cand -= 1
            if (
                (ra >= k or deg[a] == 0)
                and (rb >= k or deg[b] == 0)
                and size + slack // 2 > best_size
                and vertex_bound[cand] > best_size
            ):
                t += 1
                continue
        else:
            if size > best_size:
                best_size = size
                best = list(compress(range(m), taken))
                if best_size >= stop:
                    break
            t = m - 1
        # backtrack from position t to the deepest open include branch
        # whose exclude branch is still worth a visit.
        while t >= 0:
            a, b = ends[t]
            if taken[t]:
                # leave the include branch of t for its exclude branch
                taken[t] = False
                da = deg[a] - 1
                deg[a] = da
                db = deg[b] - 1
                deg[b] = db
                size -= 1
                ra = reach[a] - 1
                reach[a] = ra
                if ra >= k:
                    slack += 1
                elif ra == short:
                    cand -= 1
                rb = reach[b] - 1
                reach[b] = rb
                if rb >= k:
                    slack += 1
                elif rb == short:
                    cand -= 1
                if (
                    (ra >= k or da == 0)
                    and (rb >= k or db == 0)
                    and size + slack // 2 > best_size
                    and vertex_bound[cand] > best_size
                ):
                    break
            # leave the exclude branch of t: t is undecided again
            ra = reach[a] + 1
            reach[a] = ra
            if ra <= k:
                slack += 1
                if ra == k:
                    cand += 1
            rb = reach[b] + 1
            reach[b] = rb
            if rb <= k:
                slack += 1
                if rb == k:
                    cand += 1
            t -= 1
        else:
            break
        t += 1

    if order is not None and best is not None:
        best = sorted([*forced, *(order[t] for t in best)])
    return _SearchOutcome(best_size, best, nodes, settled, root_bound)


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
        self.k = k
        self.m, self.n = g.m, g.n
        self.ends = g.pairs

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
        forced, _ = index_degrees(self.n, [self.ends[j] for j in ones])
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
        _, uniform = index_degrees(self.n, [self.ends[j] for j in chosen])
        return uniform not in (0, self.k)

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


# effort accounting: a flat budget charge, in search nodes, per optimizer
# call, a relaxation and an integer-program solve alike. It is not a cost
# model and does not follow the wall time of either (BENCH_14.json has
# the measured per-node and per-solve times); it stays fixed so that the
# reported `nodes` do not move when the search or the solver gets faster.
_SOLVE_EFFORT = 10_000
# the plain search gives up and hands over to the optimizer at this depth.
_SEARCH_CAP = 4_000
# a size-only escalation tries this many capped searches toward its best
# bound, in rotated tie-breaks of the degree order, before the program.
_RESTARTS = 4


class _OutOfBudget(Exception):
    """The next stage of `max_k_matching` does not fit in the budget left."""


def max_k_matching(
    g: Graph, k: int, budget: int = DEFAULT_NODE_BUDGET, witness: bool = True
) -> OracleReport:
    """Exact maximum k-matching.

    A capped branch-and-bound settles most instances outright. With
    `witness` on it searches the canonical edge order, so its first
    maximum is the lexicographically smallest one. When the search gives
    up, the relaxation runs: a point of the relaxation that rounds to a
    k-matching meeting its exact bound is a maximum. A size-only call
    takes the smaller of that bound and the search's parity-corrected
    root bound; it is settled when the search's best meets it, or else
    by the first of up to `_RESTARTS` capped searches (degree order,
    tie-break rotated by a quarter of the vertices per restart) that
    reaches it. A restart that settles without reaching it proves the
    bound too high and ends the restarts. Otherwise the integer program
    proves the maximum size. The canonical witness is then recovered by
    fixing edges in canonical order, keeping an edge exactly when some
    maximum matching still contains it. Each such probe goes through four
    stages, and the first that decides it settles it: propagation (an
    endpoint of the edge already has degree k, or cannot reach k from the
    kept edges, the edge and the undecided ones), a capped search for a
    maximum over the undecided edges in degree order, the relaxation (its
    bound below the maximum drops the edge, its point keeps it), and a
    solve of the integer program. With `witness` off the search runs in
    degree order, which settles far more instances within the cap, and
    every stage reports just some maximum matching; size and unmatched
    counts are exact either way.

    One budget rule covers every stage. A search is capped at the smaller
    of `_SEARCH_CAP` and the budget left and charged the nodes it visits,
    at most that cap; a relaxation or integer-program solve is charged a
    flat `_SOLVE_EFFORT` and runs only if that fits. `nodes` is the total
    charge, so it never exceeds `budget`. When the next stage does not
    fit, the report degrades to exhaustive=False and carries the best
    matching found so far.
    """
    check_k(k)
    if budget < 1:
        raise InvalidParameter(f"budget must be at least 1, got {budget}")
    degree, _ = index_degrees(g.n, g.pairs)
    if k > max(degree, default=0):
        # no vertex can reach degree k, so the empty matching is the maximum.
        return OracleReport(k=k, size=0, unmatched=g.n, witness=(), exhaustive=True, nodes=0)
    program = _SizeProgram(g, k)
    spent = 0

    def report(edges: Iterable[int], exhaustive: bool) -> OracleReport:
        found = tuple(g.edges[i] for i in edges)
        size = len(found)
        if (2 * size) % k:
            raise InvariantViolation(f"a {k}-matching cannot have {size} edges")
        return OracleReport(
            k=k,
            size=size,
            unmatched=g.n - (2 * size) // k,
            witness=found,
            exhaustive=exhaustive,
            nodes=spent,
        )

    def search(order: list[int] | None, *probe) -> _SearchOutcome:
        # a probe is (forced edges, target size); its leaf must be a
        # k-matching of exactly the target size.
        nonlocal spent
        cap = min(_SEARCH_CAP, budget - spent)
        if cap < 1:
            raise _OutOfBudget
        out = _search_maximum(g, k, cap, order, *probe)
        # a capped search counts the node it stopped at; charge only the cap.
        spent += min(out.nodes, cap)
        if probe and out.best is not None:
            if len(out.best) != probe[1] or program.off_condition(out.best):
                raise InvariantViolation(f"a search returned a leaf off the 0-or-{k} condition")
        return out

    def optimize(method, fixed: dict[int, int]):
        # `program.relax` or `program.solve`, for a flat charge.
        nonlocal spent
        if spent + _SOLVE_EFFORT > budget:
            raise _OutOfBudget
        spent += _SOLVE_EFFORT
        return method(fixed)

    # the canonical order makes the first maximum the canonical witness;
    # a size-only call is free to search in the faster degree order.
    first = search(None if witness else _degree_order(g, degree))
    if first.settled:
        return report(first.best or (), True)
    sol: frozenset[int] | None = None  # a maximum, once one is known
    try:
        # the empty matching is feasible, so an infeasible answer is not
        # trusted: the edge count is a bound that needs no solver.
        bound, sol = optimize(program.relax, {}) or (g.m, None)
        if not witness:
            # for odd k the search's root bound also counts parity, which the
            # relaxation does not: C5 strong C5 at k = 3 has 37 against 36.
            bound = min(bound, first.root_bound)
            if first.best_size >= bound:
                # the best matching the search did reach meets the bound.
                return report(first.best or (), True)
        if not witness and sol is None:
            # restarts in rotated degree orders, each looking for a leaf of
            # the bound's size: the first one found is a maximum.
            for r in range(_RESTARTS):
                rerun = search(_degree_order(g, degree, r * (g.n // 4)), (), bound)
                if rerun.best is not None:
                    return report(rerun.best, True)
                if rerun.settled:
                    # no k-matching meets the bound; the program finds the optimum.
                    break
        optimum = bound
        if sol is None:
            solved = optimize(program.solve, {})
            if solved is None:
                raise InvariantViolation("the size program calls the empty matching infeasible")
            optimum, sol = solved
        if optimum == 0 or not witness:
            return report(sorted(sol), True)

        # lexicographic recovery: walk the canonical order and keep an edge
        # iff some maximum matching agrees with every decision so far and
        # contains it. `sol` always witnesses the decisions made up to this
        # point, so its members are kept for free. Any other edge j is a
        # probe, settled by the first stage that can: propagation at j's
        # endpoints, a capped search for a maximum over the edges after j,
        # the relaxation, the solver.
        kept = [0] * g.n  # degree from the kept edges
        ahead = degree.copy()  # incident edges after the current one
        # the search's best edge order; a yes/no probe may decide in any order.
        tail = _degree_order(g, degree)
        fixed: dict[int, int] = {}
        ones = 0
        for j in range(g.m):
            if ones == optimum:
                break
            a, b = program.ends[j]
            ahead[a] -= 1
            ahead[b] -= 1
            keep = j in sol
            if not keep and all(kept[x] < k <= kept[x] + 1 + ahead[x] for x in (a, b)):
                forced = [i for i, v in fixed.items() if v] + [j]
                probe = search([i for i in tail if i > j], forced, optimum)
                if probe.best is not None:
                    keep, sol = True, frozenset(probe.best)
                elif not probe.settled:
                    # a bound below the optimum drops j. An infeasible answer
                    # decides nothing and goes on to the integer program.
                    bound, point = optimize(program.relax, {**fixed, j: 1}) or (g.m, None)
                    if bound >= optimum and point is not None:
                        # a k-matching with j of at most the optimum's size
                        # that meets a bound of at least it: a maximum.
                        keep, sol = True, point
                    elif bound >= optimum:
                        attempt = optimize(program.solve, {**fixed, j: 1})
                        if attempt is not None and attempt[0] == optimum:
                            keep, sol = True, attempt[1]
            fixed[j] = int(keep)
            if keep:
                ones += 1
                kept[a] += 1
                kept[b] += 1
        if ones != optimum:
            raise InvariantViolation(f"witness recovery kept {ones} of {optimum} edges")
        return report([j for j, v in fixed.items() if v], True)
    except _OutOfBudget:
        # the search's best, or a genuine maximum that is not the canonical one.
        return report((first.best or ()) if sol is None else sorted(sol), False)


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
    edges = g.pairs
    label_edges = g.edges
    rem, _ = index_degrees(g.n, edges)
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
