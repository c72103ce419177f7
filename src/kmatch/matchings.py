"""k-matchings and the exact search oracle.

A k-matching of G is an edge set M such that in the subgraph (V, M) every
vertex has degree 0 or k. Vertices of degree k are matched, the rest are
unmatched; M is perfect when nothing is unmatched and near-perfect when
exactly one vertex is. For a valid k-matching |M| = k(n - u)/2, so all
maximum k-matchings of a graph strand the same number of vertices.

The oracle is staged. A size-only query searches the edges with a
capped include-first branch-and-bound in degree order (low-degree
vertices first), which settles most instances outright and reports some
maximum. A size-only query may be seeded with a k-matching in hand (the
suite seeds each product's query from the product it contains): the
search then starts with the seed's size as its incumbent, and the seed
stands in for the search's best until a larger leaf replaces it. An
instance that outgrows the cap goes through the size stages. The
relaxation of an integer program (one binary per edge, one per vertex,
degree = k * matched) gives an upper bound, computed exactly from its
duals and lowered to the search's parity-corrected root bound when that
is smaller. The call is settled when the search's best meets
that bound, else by the relaxation's point when it rounds to a
k-matching that meets it, else by the first of up to four capped
searches (degree order, the tie-break rotated by a quarter of the
vertices per restart) that reaches it; a restart that ends without
reaching it proves the bound too high and ends the restarts. Otherwise
the integer program proves the maximum size. The relaxation and the
program run on one HiGHS model per oracle call, built on first use. The
root relaxation starts the primal simplex at the vertex of the search's
best matching, or, when the capped search reached no leaf, the dual
simplex from nothing; each later solve states its fixed edges as bounds
and re-solves with the dual simplex from the last basis.

A witness query reports the canonical witness, the lexicographically
smallest maximum k-matching, in three stages:

1. A short first try searches the canonical edge order; its first
   maximum is the canonical witness. It is capped at m plus an eighth of
   the cap, since a leaf sits at depth m, and most queries settle here.
2. A query that the first try leaves open learns the maximum size, and
   one maximum matching, through the size stages above, from the
   degree-ordered search on.
3. The lexicographic recovery walks the canonical order and keeps an
   edge exactly when some maximum matching agrees with the edges decided
   so far and contains it; the edges of the last maximum found are kept
   for free. Each other edge is a probe, settled by the first of
   propagation (an endpoint of the edge already has degree k, or cannot
   reach k from the kept edges, the edge and the undecided ones), a
   search for a maximum over the undecided edges in the degree order
   they leave, capped short like the first try, the relaxation (a bound
   below the maximum drops the edge, a point of that size keeps it), the
   same search at the full cap, and the integer program. Once a
   relaxation decides nothing (a bound of at least the maximum without
   a point, or a claim of infeasibility), the later probes skip it and
   the short search: each searches once, at the full cap, before the
   program.

`max_k_matching` states the budget rule that covers every stage.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, islice
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
    sets); pairs are looked up among g's own sorted index pairs, so g's
    label edges are not built. Unknown edges raise the given error type.
    """
    keys = set()
    idx = g.index
    pairs = g.pairs
    for pair in m:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise error(f"{pair!r} is not an edge")
        a, b = idx.get(u, -1), idx.get(v, -1)
        key = (a, b) if a < b else (b, a)
        at = bisect_left(pairs, key)
        if at == len(pairs) or pairs[at] != key:
            raise error(f"({u!r}, {v!r}) is not an edge of the host graph")
        keys.add(key)
    return sorted(keys)


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


def degree_profile(g: Graph, m: Iterable[tuple[Vertex, Vertex]]) -> DegreeProfile:
    """Canonicalize an edge set once (see `edge_keys`) and derive its
    degree facts; an edge missing from g raises EdgeNotInHost."""
    keys = edge_keys(g, m)
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
    spent against the budget: the nodes of every search the query makes,
    plus a flat charge per optimizer call.
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
    # the parity-corrected candidate bound at the root, an upper bound on
    # every leaf; -1 when the forced edges leave no leaf at all
    root_bound: int


def _degree_order(g: Graph, degree: Sequence[int], rotate: int = 0, after: int = -1) -> list[int]:
    """Canonical edge indices past `after` in degree order.

    Vertices are ranked by ascending `degree` (from `index_degrees`), ties
    broken by canonical index, and edges sorted by their ranked endpoint
    pair. Low-degree vertices have the fewest ways to reach degree k, so
    deciding their edges first settles forced choices early; on the
    corpus products the search then finds the optimum in far fewer nodes
    than in canonical order. A restart passes `rotate`: the tie-break
    then starts at that canonical index and wraps around. A recovery
    probe passes `after`, its edge: only the edges after it are sorted,
    which gives the same list as filtering the full order, as the ranks
    are a bijection and so no two edges share a ranked pair.
    """
    n = g.n
    by_degree = sorted(range(n), key=lambda i: (degree[i], (i - rotate) % n))
    rank = [0] * n
    for r, i in enumerate(by_degree):
        rank[i] = r
    # the ranked pair of each edge past `after`, by canonical index
    ranked: list[tuple[int, int] | None] = [None] * (after + 1)
    for i, j in islice(g.pairs, after + 1, None):
        a, b = rank[i], rank[j]
        ranked.append((a, b) if a < b else (b, a))
    return sorted(range(after + 1, g.m), key=ranked.__getitem__)


def _search_maximum(
    g: Graph,
    k: int,
    node_cap: int,
    order: list[int] | None = None,
    forced: Sequence[int] = (),
    target: int | None = None,
    floor: int = -1,
) -> _SearchOutcome:
    """Include-first branch-and-bound over an edge order.

    `order` lists canonical edge indices in the order they are decided;
    the default is the canonical order. `best` always holds canonical
    indices, ascending.

    A seeded size query passes `floor`, the size of a k-matching it
    already holds, and no probe arguments. The incumbent starts at the
    floor, so the bound prunes every branch that cannot beat it and only
    a strictly larger leaf becomes `best`; a settled search without one
    proves that no k-matching is larger than the floor.

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
    plus the undecided incident edges); `cand` counts the vertices that
    can still reach degree k (reach >= k). A leaf is only reachable with
    every vertex at degree 0 or k, because a vertex stuck strictly
    between is pruned as soon as its reach falls below k. The bound is a
    parity-corrected k * t // 2 over the t candidates: only candidates
    can end matched, and k odd forces an even number of matched vertices.
    It is the outcome's `root_bound` at the root, and it does not depend
    on `order`. (Summing min(reach, k) over the vertices bounds twice the
    size too, but that sum is at least k * t, so it never prunes more.)

    Including an edge leaves reach and `cand` alone, so an include branch
    has its parent's bound and is entered without a bound test; excluding
    it lowers both endpoints' reach by one. The root's bound is tested
    before the walk, and every other node is entered only through a
    branch whose bound beat the incumbent.

    Equal-size solutions are visited in include-first order and only
    strict improvements replace the incumbent. Over the canonical order
    `best` is therefore the lexicographically smallest maximum whenever
    `settled` is True; over any other order it is some maximum.

    The walk is a loop, not a recursion, so its depth is not bounded by
    the interpreter's recursion limit. The path from the root is one flag
    per decided position, `taken`: True while the position's include
    branch is open, False while its exclude branch is; the taken
    positions are the chosen edges. The walk has four moves, each written
    once: include, exclude, undo-include and undo-exclude. A node whose
    edge cannot be included is excluded at once. From a leaf, or from an
    exclude whose bound does not beat the incumbent, the walk undoes
    excludes back to the deepest open include, undoes it and excludes
    that edge by the same step, so the exclude's test is the walk's one
    bound test. Nodes are visited in exactly the order of the
    include-first recursion, so `best`, `best_size` and `nodes` are the
    ones that recursion would give. At the cap the loop stops where it
    is: the outcome is then unsettled and the bookkeeping is dropped.
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
    best_size = floor if target is None else target - 1
    if any(d > k or 0 < d and r < k for d, r in zip(deg, reach)):
        return _SearchOutcome(best_size, None, nodes=0, settled=True, root_bound=-1)
    stop = m + size + 1 if target is None else target
    cand = sum(1 for r in reach if r >= k)
    # the parity-corrected candidate bound, by number of candidates
    odd = k & 1
    vertex_bound = [k * (c - (c & odd)) // 2 for c in range(g.n + 1)]
    root_bound = vertex_bound[cand]
    if m and root_bound <= best_size:
        # the bound prunes both branches of the root: the walk ends there.
        return _SearchOutcome(
            best_size, None, nodes=1, settled=node_cap >= 1, root_bound=root_bound
        )
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
                # include t
                deg[a] += 1
                deg[b] += 1
                size += 1
                taken[t] = True
                t += 1
                continue
        elif size > best_size:
            best_size = size
            best = list(compress(range(m), taken))
            if best_size >= stop:
                break
        # Exclude t, or walk back from the leaf at t == m. On the way down
        # every position at or past t has `taken` False (walking back
        # clears the flag of each include it undoes), so excluding t never
        # writes it.
        while t >= 0:
            if t < m:
                # exclude t
                ra = reach[a] - 1
                reach[a] = ra
                if ra == short:
                    cand -= 1
                rb = reach[b] - 1
                reach[b] = rb
                if rb == short:
                    cand -= 1
                if (
                    (ra >= k or deg[a] == 0)
                    and (rb >= k or deg[b] == 0)
                    and vertex_bound[cand] > best_size
                ):
                    break
            else:
                t -= 1
            # walk back to the deepest open include branch and switch it
            # to its exclude branch at the top of this loop.
            while t >= 0:
                a, b = ends[t]
                if taken[t]:
                    # undo the include of t
                    taken[t] = False
                    deg[a] -= 1
                    deg[b] -= 1
                    size -= 1
                    break
                # undo the exclude of t: t is undecided again
                ra = reach[a] + 1
                reach[a] = ra
                if ra == k:
                    cand += 1
                rb = reach[b] + 1
                reach[b] = rb
                if rb == k:
                    cand += 1
                t -= 1
        else:
            break
        t += 1

    if order is not None and best is not None:
        best = sorted([*forced, *(order[t] for t in best)])
    return _SearchOutcome(best_size, best, nodes, settled, root_bound)


# HiGHS's settings for every size program. Presolve stays off: the
# bundled solver's presolve mishandles these equality systems and can claim
# an infeasible instance is optimal. The relative gap is 0: at HiGHS's
# default of 1e-4 a solve may stop one edge short of the optimum once that
# exceeds 10,000 edges. Simplex strategy 1 is the dual simplex, which every
# run uses except a root relaxation started at the search's best matching:
# that one runs the primal simplex (strategy 4) from the matching's vertex,
# a primal feasible basis (see `_SizeProgram._run`). Output is off: HiGHS
# logs to stdout, which carries the CLI's JSON.
_HIGHS_OPTIONS = {"presolve": "off", "simplex_strategy": 1, "mip_rel_gap": 0, "output_flag": False}
_PRIMAL_SIMPLEX = 4


@contextmanager
def _stdout_to_devnull():
    """File descriptor 1 points at the null device for the block. With
    its output off HiGHS still writes some lines straight to the process's
    stdout, below Python's `sys.stdout`, which carries the CLI's JSON:
    the bundled HiGHS 1.12's branch-and-bound, with presolve off, writes
    a line for each solution it finds while a column is fixed at 1, and
    the root integer program of `cycle(45)` strong `cycle(45)` at k = 1,
    with no column fixed, wrote 27. Python's own buffered output is
    flushed first, so it keeps its place. The descriptor is the
    process's, so another thread's writes to stdout during the block are
    lost too. A process without a descriptor 1 has nothing to guard."""
    if sys.stdout is not None:
        sys.stdout.flush()
    try:
        saved = os.dup(1)
    except OSError:
        saved = None
    if saved is None:
        yield
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(null)


class _SizeProgram:
    """The 0-or-k degree condition as an integer program on one HiGHS model.

    One binary column per edge, one per vertex; the row per vertex says
    the chosen degree minus k times the matched flag is 0, which is the
    condition verbatim. The model is built on the first call, through the
    HiGHS binding that scipy ships, and kept. Each call states its fixings
    as bounds (see `_run`) and runs the solver again, so a relaxation
    starts the dual simplex from the previous call's basis. The one
    exception is a relaxation after `start_at`, which starts the primal
    simplex at the vertex of a given k-matching: the oracle starts its
    root relaxation at the search's best matching, when it has one.
    `solve` answers the integer program, switching integrality on for its
    own run only; `relax` answers the continuous relaxation, whose bound
    is exact whatever the solver's float error, see `relax`. Every
    returned point is re-validated against the degree condition and the
    fixings. Answers are deterministic for a fixed sequence of calls; a
    warm start may return another optimal point than a cold one would.
    """

    def __init__(self, g: Graph, k: int):
        self.k = k
        self.m, self.n = g.m, g.n
        self.ends = g.pairs
        self._solver = None  # built on the first `_run`
        self._start: Iterable[int] | None = None  # see `start_at`

    def _build(self):
        """A HiGHS solver holding the model: minimize minus the sum of
        the edge columns subject to "degree over the edge columns - k *
        the vertex's flag column = 0" per vertex, every column in [0, 1].
        The model goes in as arrays, through the binding's array form of
        `passModel`."""
        import numpy as np
        from scipy.optimize._highspy import _core as highspy

        e, n = self.m, self.n
        cols = e + n
        # column-wise: an edge column has 1 in its endpoints' rows, a flag
        # -k in its own. The start array has one entry per column.
        start = np.concatenate((np.arange(0, 2 * e, 2), np.arange(2 * e, 2 * e + n)))
        index = np.concatenate((np.ravel(np.asarray(self.ends, dtype=int)), np.arange(n)))
        value = np.concatenate((np.ones(2 * e), np.full(n, -float(self.k))))
        solver = highspy._Highs()
        for option, setting in _HIGHS_OPTIONS.items():
            solver.setOptionValue(option, setting)
        status = solver.passModel(
            cols, n, 2 * e + n,
            highspy.MatrixFormat.kColwise, highspy.ObjSense.kMinimize, 0.0,
            np.concatenate((np.full(e, -1.0), np.zeros(n))),  # cost
            np.zeros(cols), np.ones(cols),  # column bounds
            np.zeros(n), np.zeros(n),  # row bounds
            start, index, value,
            np.zeros(cols, dtype=np.int32),  # integrality: continuous
        )
        if status != highspy.HighsStatus.kOk:
            raise InvariantViolation(f"HiGHS refused the size program: {status}")
        return solver

    def _basis(self, chosen: Iterable[int]):
        """The basis at the vertex of the k-matching `chosen`: every row
        logical basic, every column nonbasic, at its upper bound when its
        edge is chosen or its vertex matched, else at its lower bound. The
        basis matrix is the identity, and the vertex satisfies every row,
        so the basis is primal feasible while every column has [0, 1]."""
        from scipy.optimize._highspy import _core as highspy

        lower, upper = highspy.HighsBasisStatus.kLower, highspy.HighsBasisStatus.kUpper
        cols = [lower] * (self.m + self.n)
        for j in chosen:
            cols[j] = upper
            for x in self.ends[j]:
                cols[self.m + x] = upper
        basis = highspy.HighsBasis()
        basis.col_status = cols
        basis.row_status = [highspy.HighsBasisStatus.kBasic] * self.n
        basis.alien = False
        return basis

    def start_at(self, chosen: Iterable[int]) -> None:
        """Start the next run, the root relaxation, at the vertex of the
        k-matching `chosen` (canonical edge indices) with the primal
        simplex; see `_run`. Without fixings every column has the bounds
        [0, 1], so `_basis` is primal feasible there."""
        self._start = chosen

    def _run(
        self, fixed: dict[int, int], integral: bool
    ) -> tuple[float, frozenset[int], Sequence[float]] | None:
        """The one call into HiGHS: state `fixed` on the model and run it,
        with every column integer if `integral`. None when HiGHS calls the
        program infeasible, else (size, point, duals): the optimum's edge
        count, the edges whose value is above 1/2 and the row duals. Any
        other outcome raises InvariantViolation.

        A kept edge is stated as the bounds [1, 1] on its column and a
        dropped one as [0, 0], in one call over every edge column. A run
        after `start_at` sets the basis of that matching's vertex and runs
        the primal simplex from it; every other run starts the dual simplex
        from the last run's basis (from nothing on the first). A run with
        fixings changes only bounds, so the last basis stays dual feasible.
        The run itself happens inside `_stdout_to_devnull`.
        """
        import numpy as np
        from scipy.optimize._highspy import _core as highspy

        if self._solver is None:
            self._solver = self._build()
        solver = self._solver
        lower, upper = np.zeros(self.m), np.ones(self.m)
        for j, value in fixed.items():
            if value:
                lower[j] = 1.0
            else:
                upper[j] = 0.0
        solver.changeColsBounds(self.m, np.arange(self.m, dtype=np.int32), lower, upper)
        start, self._start = self._start, None
        if start is not None:
            status = solver.setBasis(self._basis(start))
            if status != highspy.HighsStatus.kOk:
                raise InvariantViolation(f"HiGHS refused the starting basis: {status}")
            solver.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        if integral:
            cols = np.arange(self.m + self.n, dtype=np.int32)
            solver.changeColsIntegrality(len(cols), cols, np.ones(len(cols), dtype=np.uint8))
        try:
            with _stdout_to_devnull():
                solver.run()
            status = solver.getModelStatus()
            if status == highspy.HighsModelStatus.kInfeasible:
                return None
            if status != highspy.HighsModelStatus.kOptimal:
                what = "size" if integral else "relaxation"
                raise InvariantViolation(
                    f"{what} solve failed: {solver.modelStatusToString(status)}"
                )
            solution = solver.getSolution()
            point = np.flatnonzero(np.asarray(solution.col_value[: self.m]) > 0.5).tolist()
            return -solver.getObjectiveValue(), frozenset(point), solution.row_dual
        finally:
            if start is not None:
                solver.setOptionValue("simplex_strategy", _HIGHS_OPTIONS["simplex_strategy"])
            if integral:
                solver.changeColsIntegrality(len(cols), cols, np.zeros(len(cols), dtype=np.uint8))

    def off_condition(self, chosen: Iterable[int]) -> bool:
        """True when the edges `chosen` leave a vertex at a degree other
        than 0 or k. A plain test, not an assert, so it runs under -O."""
        _, uniform = index_degrees(self.n, [self.ends[j] for j in chosen])
        return uniform not in (0, self.k)

    def _breaks(self, chosen: frozenset[int], fixed: dict[int, int]) -> bool:
        """True when `chosen` is off the degree condition or disagrees
        with a fixing; plain tests, so they run under -O."""
        return self.off_condition(chosen) or any((j in chosen) != bool(v) for j, v in fixed.items())

    def solve(self, fixed: dict[int, int]) -> tuple[int, frozenset[int]] | None:
        """Maximum size and one witness honoring `fixed`; None if infeasible."""
        answer = self._run(fixed, integral=True)
        if answer is None:
            return None
        size, chosen, _ = answer
        if len(chosen) != round(size):
            raise InvariantViolation(
                f"size solve returned {len(chosen)} edges for objective {size}"
            )
        if self._breaks(chosen, fixed):
            raise InvariantViolation(
                f"size solve returned a point off the 0-or-{self.k} condition or the fixings"
            )
        return len(chosen), chosen

    def relax(self, fixed: dict[int, int]) -> tuple[int, frozenset[int] | None]:
        """The continuous relaxation of `solve(fixed)`, as (bound, point).

        `bound` is an upper bound on the size of every k-matching
        honoring `fixed`, exact by construction. For any multipliers lam
        on the degree rows, weak duality over the columns' bounds gives

            size <= sum_free max(0, r_e) + sum_kept r_e + sum_v max(0, -k lam_v)

        with r_e = 1 + lam_a + lam_b for the edge e = ab, over the
        undecided edges and the kept ones (a dropped edge adds nothing).
        The right-hand side is evaluated in exact rational arithmetic from
        the solver's row duals, so float error can only make the bound
        weaker, never wrong. `point` is the solver's point rounded to 0/1,
        returned only when it has exactly `bound` edges, passes
        `off_condition` and agrees with every fixing (plain tests, so they
        run under -O): it is then a k-matching honoring `fixed` that meets
        an upper bound, a maximum.

        The answer is never None: a claim of infeasibility is not trusted
        (without `fixed` the empty matching is feasible, so there it is
        wrong) and gives (m, None), the edge count being a bound that
        needs no solver.
        """
        answer = self._run(fixed, integral=False)
        if answer is None:
            return self.m, None
        _, chosen, duals = answer
        # the duals as integers over one power-of-two denominator: every
        # finite float is a dyadic rational, and any multiplier is valid.
        ratios = [x.as_integer_ratio() if math.isfinite(x) else (0, 1) for x in duals]
        scale = max(d for _, d in ratios)
        lam = [p * (scale // d) for p, d in ratios]
        total = sum(max(0, -self.k * x) for x in lam)
        for j, (a, b) in enumerate(self.ends):
            value = fixed.get(j)
            if value != 0:
                r = scale + lam[a] + lam[b]
                total += r if value else max(0, r)
        bound = total // scale
        if len(chosen) != bound or self._breaks(chosen, fixed):
            return bound, None
        return bound, chosen


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


def _short_cap(d: int) -> int:
    """The cap of a witness query's quick searches over d edges to decide:
    d (a leaf sits at depth d) plus an eighth of `_SEARCH_CAP`, or
    `_SEARCH_CAP` if that is smaller. d is at least 1: a recovery probe
    always has an edge of the known maximum after it."""
    return min(_SEARCH_CAP, d + _SEARCH_CAP // 8)


def _seed(g: Graph, k: int, start: Iterable[tuple[Vertex, Vertex]]) -> list[int]:
    """The canonical edge indices, ascending, of the k-matching `start`
    of a size-only query; see `max_k_matching`."""
    keys = edge_keys(g, start)
    _, uniform = index_degrees(g.n, keys)
    if uniform not in (0, k):
        raise InvariantViolation(f"the start is not a {k}-matching of the host")
    pairs = g.pairs
    return [bisect_left(pairs, key) for key in keys]


class _OutOfBudget(Exception):
    """The next stage of `max_k_matching` does not fit in the budget left."""


def max_k_matching(
    g: Graph,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
    witness: bool = True,
    *,
    start: Iterable[tuple[Vertex, Vertex]] | None = None,
) -> OracleReport:
    """Exact maximum k-matching, through the stages of the module docstring.

    With `witness` on the report carries the canonical witness, the
    lexicographically smallest maximum k-matching under the canonical edge
    order; with it off, some maximum. The report is exact (exhaustive=True)
    unless the budget runs out first.

    A size-only query may pass `start`, a k-matching of g already in hand
    (with `witness` on it raises InvalidParameter). Its edges must lie in
    g (else EdgeNotInHost) and meet the 0-or-k condition (else
    InvariantViolation); both are plain tests that run under -O. The
    degree-ordered search then starts with the seed's size as its
    incumbent (the `floor` of `_search_maximum`): a settled search that
    finds no larger leaf reports the seed itself, and a capped one that
    finds none lets the seed stand in as its best, the vertex the root
    relaxation starts at and the matching tested against the bound. The
    seed costs no nodes; the answer's size is the unseeded call's.

    One budget rule covers every stage. A search is capped at the smaller
    of its cap (`_SEARCH_CAP`, or `_short_cap` for the first witness try
    and a relaxing probe) and the budget left and charged the nodes it
    visits, at most that cap; a relaxation or integer-program solve is
    charged a flat `_SOLVE_EFFORT` and runs only if that fits. `nodes` is
    the total charge, so it never exceeds `budget`. When the next stage
    does not fit, the report degrades to exhaustive=False and carries the
    best matching found so far: a maximum once one is known, else the
    larger incumbent of the root searches.
    """
    check_k(k)
    if budget < 1:
        raise InvalidParameter(f"budget must be at least 1, got {budget}")
    seed = None
    if start is not None:
        if witness:
            raise InvalidParameter("a start seeds a size-only query; pass witness=False")
        seed = _seed(g, k, start)
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

    def search(
        order: list[int] | None, *probe, cap: int = _SEARCH_CAP, floor: int | None = None
    ) -> _SearchOutcome:
        # a probe is (forced edges, target size); its leaf must be a
        # k-matching of exactly the target size. A seeded search passes
        # the seed's size as its floor.
        nonlocal spent
        cap = min(cap, budget - spent)
        if cap < 1:
            raise _OutOfBudget
        if floor is None:
            out = _search_maximum(g, k, cap, order, *probe)
        else:
            out = _search_maximum(g, k, cap, order, floor=floor)
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

    def maximum(sized: _SearchOutcome) -> tuple[int, Iterable[int]]:
        # the size stages from a degree-ordered search on: the maximum size
        # and one maximum matching.
        if sized.settled:
            return sized.best_size, sized.best or ()
        if sized.best is not None:
            # the relaxation starts at the search's best matching, often
            # close to the optimum (410 of 420 edges on cycle(21) cartesian
            # path(20) at k = 2); without one it starts from nothing.
            program.start_at(sized.best)
        bound, point = optimize(program.relax, {})
        # for odd k the search's root bound also counts parity, which the
        # relaxation does not: C5 strong C5 at k = 3 has 37 against 36.
        bound = min(bound, sized.root_bound)
        if sized.best_size >= bound:
            # the best matching the search did reach meets the bound.
            return bound, sized.best or ()
        if point is not None:
            return bound, point
        # restarts in rotated degree orders, each looking for a leaf of the
        # bound's size: the first one found is a maximum.
        for r in range(_RESTARTS):
            rerun = search(_degree_order(g, degree, r * (g.n // 4)), (), bound)
            if rerun.best is not None:
                return bound, rerun.best
            if rerun.settled:
                # no k-matching meets the bound; the program finds the optimum.
                break
        solved = optimize(program.solve, {})
        if solved is None:
            raise InvariantViolation("the size program calls the empty matching infeasible")
        return solved

    if witness:
        # a short first try in the canonical order, whose first maximum is
        # the canonical witness. A leaf sits at depth m, so the cap grows
        # with the edge count.
        first = search(None, cap=_short_cap(g.m))
    elif seed is None:
        # a size-only call is free to search in the faster degree order.
        first = search(_degree_order(g, degree))
    else:
        # only a leaf larger than the seed replaces it.
        first = search(_degree_order(g, degree), floor=len(seed))
        if first.best is None:
            first.best = seed
    if first.settled:
        return report(first.best or (), True)
    top = first  # the larger incumbent of the root searches
    sol: frozenset[int] | None = None  # a maximum, once one is known
    try:
        sized = first
        if witness:
            # learn the size the way a size-only call does.
            sized = search(_degree_order(g, degree))
            if sized.best_size > top.best_size:
                top = sized
        optimum, found = maximum(sized)
        sol = frozenset(found)
        if optimum == 0 or not witness:
            return report(sorted(sol), True)

        # lexicographic recovery: walk the canonical order and keep an edge
        # iff some maximum matching agrees with every decision so far and
        # contains it. `sol` always witnesses the decisions made up to this
        # point, so its members are kept for free. Any other edge j is a
        # probe, settled by the first stage that can: propagation at j's
        # endpoints, then `holding`.
        kept = [0] * g.n  # degree from the kept edges
        ahead = degree.copy()  # incident edges after the current one
        fixed: dict[int, int] = {}
        ones = 0
        relaxing = True

        def holding(j: int) -> frozenset[int] | None:
            # a maximum that agrees with `fixed` and contains j, or None if
            # none does: a capped search for one over the edges after j (in
            # degree order by `ahead`, the degrees those edges give; a
            # yes/no probe may decide in any order), the relaxation, the
            # solver. While the relaxation is asked, the search gets the
            # short cap, and the full cap only once a relaxation decides
            # nothing; later probes skip the relaxation and search once, at
            # the full cap.
            nonlocal relaxing
            forced = [i for i, v in fixed.items() if v] + [j]
            order = _degree_order(g, ahead, after=j)
            cap = _short_cap(len(order)) if relaxing else _SEARCH_CAP
            probe = search(order, forced, optimum, cap=cap)
            if probe.best is None and not probe.settled and relaxing:
                bound, point = optimize(program.relax, {**fixed, j: 1})
                relaxing = bound < optimum or point is not None
                if bound < optimum:
                    return None
                if point is not None:
                    # a k-matching with j of at most the optimum's size
                    # that meets a bound of at least it: a maximum.
                    return point
                if cap < _SEARCH_CAP:
                    probe = search(order, forced, optimum)
            if probe.best is not None:
                return frozenset(probe.best)
            if probe.settled:
                return None
            attempt = optimize(program.solve, {**fixed, j: 1})
            return attempt[1] if attempt is not None and attempt[0] == optimum else None

        for j in range(g.m):
            if ones == optimum:
                break
            a, b = program.ends[j]
            ahead[a] -= 1
            ahead[b] -= 1
            keep = j in sol
            if not keep and all(kept[x] < k <= kept[x] + 1 + ahead[x] for x in (a, b)):
                found = holding(j)
                if found is not None:
                    keep, sol = True, found
            fixed[j] = int(keep)
            if keep:
                ones += 1
                kept[a] += 1
                kept[b] += 1
        if ones != optimum:
            raise InvariantViolation(f"witness recovery kept {ones} of {optimum} edges")
        return report([j for j, v in fixed.items() if v], True)
    except _OutOfBudget:
        # the larger root incumbent, or a genuine maximum that is not the
        # canonical one.
        return report((top.best or ()) if sol is None else sorted(sol), False)


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
