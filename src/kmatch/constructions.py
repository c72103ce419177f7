"""The three matching constructions on graph products.

Given factor edge sets M_G and M_H, the package builds product edge sets
out of three primitive parts:

* layer copies: M_G replayed in every left-factor layer (one copy per
  right vertex), or M_H replayed per left vertex. Cartesian edges.
* unmatched fill: the other factor's matching laid into the fiber of each
  unmatched vertex. Cartesian edges as well.
* diagonals: for every matched pair {a,b} x {c,d}, the two non-Cartesian
  edges {(a,c),(b,d)} and {(a,d),(b,c)}.

The constructions are then:

* boxast (orientation gh): layer copies of M_G plus fill over the
  M_G-unmatched left vertices. Orientation hg swaps the roles. Defined on
  the cartesian, strong, and lex products (it only uses Cartesian edges).
* ast: the diagonals alone. Defined on strong, direct, and lex products.
* circledast: diagonals plus both fills. Defined on strong and lex.

The parts are built in index space. A factor matching enters in index
form: its edges as index pairs plus the indices of its unmatched
vertices. A product vertex (x, y) has index i_G(x) * n_H + i_H(y), the
left-major order `products.product` fixes, so a part is a list of product
index pairs, lower index first, and sorting them gives the canonical edge
order. `boxast_parts` is the boxast edge rule; the well-behavedness layer
runs it directly over all maximum factor pairs. Every built set passes
`checked_degrees`: each pair must be a product edge and occur once, else
the construction has a bug and InvariantViolation is raised.

Each result carries a classification: a prediction, computed from the
factor sides only, of whether the produced set is a k-matching and for
which k. The prediction is exact (the test suite compares it against
direct validation over exhaustively enumerated inputs); the condition tags
name which factor regime applied. A k-matching result also carries its
closed-form size: k/2 edges per product vertex pair it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Iterable, Sequence

from .errors import (
    EdgeNotInFactor,
    InvalidParameter,
    InvariantViolation,
    UnsupportedKind,
)
from .graphs import Edge, Graph
from .matchings import DegreeProfile, edge_keys, index_degrees, keyed_profile
from .products import ProductGraph

# the product kinds each construction is defined on
PRODUCT_KINDS = {
    "boxast": ("cartesian", "strong", "lex"),
    "ast": ("strong", "direct", "lex"),
    "circledast": ("strong", "lex"),
}


@dataclass(frozen=True)
class Classification:
    """Factor-side prediction for a constructed set.

    `k` is the claimed regularity when the set is a k-matching (1 for an
    empty result, by convention). `factor_ks` records the (k_G, k_H) split
    for the diagonal constructions. `condition` names the regime:
    perfect-primary / both-matchings for boxast, factored for ast,
    M1.a/M1.b/M2.a/M2.b/M3/M4 for circledast, none otherwise.
    """

    is_k_matching: bool
    k: int | None
    factor_ks: tuple[int, int] | None
    condition: str


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed edge set with its recorded factor matchings.

    `profile` is the set's degree profile in the product (`edges` reads
    it); `profile.uniform in (0, k)` validates it as a k-matching.
    `predicted_size` is k * covered / 2, where covered counts the product
    vertex pairs the factor profiles say the set touches; None when the
    classification says the set is no k-matching.
    """

    kind: str
    orientation: str
    product: ProductGraph
    m_g: tuple[Edge, ...]
    m_h: tuple[Edge, ...]
    profile: DegreeProfile
    parts: dict[str, tuple[Edge, ...]]
    classification: Classification
    predicted_size: int | None

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.profile.edges


def _require_kind(kind: str, p: ProductGraph) -> None:
    allowed = PRODUCT_KINDS[kind]
    if p.kind not in allowed:
        raise UnsupportedKind(
            f"{kind} is undefined on the {p.kind} product; supported kinds: {', '.join(allowed)}"
        )


# index space -----------------------------------------------------------------

Index = tuple[int, int]
# a factor edge set in index form: its edge index pairs, ascending, and the
# indices of the vertices it leaves unmatched
FactorForm = tuple[list[Index], list[int]]


def factor_form(g: Graph, m) -> FactorForm:
    """The factor edge set m in index form. Edges not in g raise
    EdgeNotInFactor."""
    keys = edge_keys(g, m, error=EdgeNotInFactor)
    deg, _ = index_degrees(g.n, keys)
    return keys, [i for i, d in enumerate(deg) if d == 0]


def index_form(g: Graph, m) -> tuple[DegreeProfile, FactorForm]:
    """The factor edge set m in canonical form with its degree profile, and
    in index form (`factor_form`)."""
    keys = edge_keys(g, m, error=EdgeNotInFactor)
    deg, uniform = index_degrees(g.n, keys)
    return keyed_profile(g, keys, deg, uniform), (keys, [i for i, d in enumerate(deg) if d == 0])


def _moving_left(keys_g: list[Index], columns, n_h: int) -> list[Index]:
    """((a, w), (b, w)) for each left pair {a, b} and column w."""
    return [(a * n_h + w, b * n_h + w) for w in columns for a, b in keys_g]


def _moving_right(keys_h: list[Index], rows, n_h: int) -> list[Index]:
    """((u, c), (u, d)) for each row u and right pair {c, d}."""
    return [(u * n_h + c, u * n_h + d) for u in rows for c, d in keys_h]


def _diagonals(keys_g: list[Index], keys_h: list[Index], n_h: int) -> list[Index]:
    """((a, c), (b, d)) and ((a, d), (b, c)) for each left pair {a, b} and
    right pair {c, d}."""
    out = []
    for a, b in keys_g:
        row_a, row_b = a * n_h, b * n_h
        for c, d in keys_h:
            out.append((row_a + c, row_b + d))
            out.append((row_a + d, row_b + c))
    return out


def boxast_parts(
    p: ProductGraph, form_g: FactorForm, form_h: FactorForm, orientation: str
) -> tuple[list[Index], list[Index]]:
    """The boxast edge rule: (layer copies, unmatched fill) as product index
    pairs, unsorted. A perfect primary matching leaves no fill."""
    (keys_g, open_g), (keys_h, open_h) = form_g, form_h
    n_h = p.right.n
    if orientation == "gh":
        return _moving_left(keys_g, range(n_h), n_h), _moving_right(keys_h, open_g, n_h)
    return _moving_right(keys_h, range(p.left.n), n_h), _moving_left(keys_g, open_h, n_h)


def require_members(members: AbstractSet[Index], keys: Iterable[Index]) -> None:
    """Check that constructed product index pairs are all in `members`,
    the product's edge pairs. A miss is a construction bug, raised as
    InvariantViolation by a plain test that still runs under -O."""
    if not members.issuperset(keys):
        bad = next(key for key in keys if key not in members)
        raise InvariantViolation(f"constructed pair {bad} is not an edge of the product")


def distinct_pairs(keys: Sequence[Index]) -> set[Index]:
    """The set of constructed index pairs, once no pair is found twice
    (else InvariantViolation, as in `require_members`)."""
    distinct = set(keys)
    if len(distinct) != len(keys):
        raise InvariantViolation("constructed parts share an edge")
    return distinct


def checked_degrees(
    n: int, members: AbstractSet[Index], keys: Sequence[Index]
) -> tuple[list[int], int | None]:
    """The `index_degrees` of constructed product index pairs, once each
    pair is checked to be in `members` and to occur only once."""
    require_members(members, keys)
    distinct_pairs(keys)
    return index_degrees(n, keys)


# classification from the factor profiles -------------------------------------


_NOT_A_K_MATCHING = Classification(False, None, None, "none")


def _classify_boxast(gs: DegreeProfile, hs: DegreeProfile, orientation: str) -> Classification:
    primary = gs if orientation == "gh" else hs
    if primary.perfect:
        return Classification(True, primary.uniform, None, "perfect-primary")
    if not (gs.valid and hs.valid):
        return _NOT_A_K_MATCHING
    # an empty side adopts the other side's k; two empty sides give 1.
    ks = {gs.uniform, hs.uniform} - {0}
    if len(ks) > 1:
        return _NOT_A_K_MATCHING
    return Classification(True, max(ks, default=1), None, "both-matchings")


def _classify_ast(gs: DegreeProfile, hs: DegreeProfile) -> Classification:
    if gs.empty or hs.empty:
        # the produced set is empty, hence trivially a k-matching; no factor
        # regime explains it when the other side is not a matching.
        return Classification(True, 1, (1, 1), "factored" if gs.valid and hs.valid else "none")
    if gs.valid and hs.valid:
        return Classification(True, gs.uniform * hs.uniform, (gs.uniform, hs.uniform), "factored")
    return _NOT_A_K_MATCHING


def _classify_circledast(gs: DegreeProfile, hs: DegreeProfile) -> Classification:
    if gs.perfect and hs.valid and hs.uniform == 1:
        return Classification(True, gs.uniform, (gs.uniform, 1), "M1.a")
    if gs.valid and gs.uniform >= 1 and hs.empty:
        return Classification(True, gs.uniform, (gs.uniform, 1), "M1.b")
    if gs.valid and gs.uniform == 1 and hs.perfect:
        return Classification(True, hs.uniform, (1, hs.uniform), "M2.a")
    if gs.empty and hs.valid and hs.uniform >= 1:
        return Classification(True, hs.uniform, (1, hs.uniform), "M2.b")
    if gs.valid and hs.valid and gs.uniform <= 1 and hs.uniform <= 1:
        return Classification(True, 1, (1, 1), "M3")
    if gs.perfect and hs.perfect:
        return Classification(True, gs.uniform * hs.uniform, (gs.uniform, hs.uniform), "M4")
    return _NOT_A_K_MATCHING


# the constructions ----------------------------------------------------------
#
# Each one takes its factor sets to index form once, builds its parts as
# product index pairs, and hands them to `_assemble`, which checks and
# labels them once. The parts are Cartesian or doubly-moving edges that
# exist in every supported kind, and they touch disjoint sets of product
# vertices, so a part missing from the product or two parts sharing an
# edge is a bug.


def _assemble(
    p: ProductGraph,
    kind: str,
    orientation: str,
    recorded: tuple[tuple[Edge, ...], tuple[Edge, ...]],
    parts: dict[str, list[Index]],
    cls: Classification,
    covered: int,
) -> ConstructionResult:
    graph = p.graph
    parts = {name: sorted(part) for name, part in parts.items()}
    keys = sorted(chain.from_iterable(parts.values()))
    deg, uniform = checked_degrees(graph.n, set(graph.pairs), keys)
    vs = graph.vertices
    return ConstructionResult(
        kind=kind,
        orientation=orientation,
        product=p,
        m_g=recorded[0],
        m_h=recorded[1],
        profile=keyed_profile(graph, keys, deg, uniform),
        parts={name: tuple([(vs[a], vs[b]) for a, b in part]) for name, part in parts.items()},
        classification=cls,
        predicted_size=cls.k * covered // 2 if cls.is_k_matching else None,
    )


def boxast(p: ProductGraph, m_g, m_h, orientation: str = "gh") -> ConstructionResult:
    """Layer copies of the primary matching plus fill over its unmatched
    vertices.

    A perfect primary matching leaves nothing to fill, so the recorded
    secondary is the empty set: the canonical form the characterizations
    assume.
    """
    _require_kind("boxast", p)
    if orientation not in ("gh", "hg"):
        raise InvalidParameter(f"orientation must be gh or hg, got {orientation!r}")
    (gs, form_g), (hs, form_h) = index_form(p.left, m_g), index_form(p.right, m_h)
    mg, mh = gs.edges, hs.edges
    if orientation == "gh" and gs.perfect:
        mh = ()
    if orientation == "hg" and hs.perfect:
        mg = ()
    copies, fill = boxast_parts(p, form_g, form_h, orientation)
    cls = _classify_boxast(gs, hs, orientation)
    # a pair stays uncovered only when both of its coordinates are unmatched
    covered = p.left.n * p.right.n - len(gs.unmatched) * len(hs.unmatched)
    parts = {"layer_copies": copies, "unmatched_fill": fill}
    return _assemble(p, "boxast", orientation, (mg, mh), parts, cls, covered)


def ast(p: ProductGraph, m_g, m_h) -> ConstructionResult:
    """The two diagonals of every matched pair of factor edges."""
    _require_kind("ast", p)
    (gs, (keys_g, _)), (hs, (keys_h, _)) = index_form(p.left, m_g), index_form(p.right, m_h)
    cls = _classify_ast(gs, hs)
    # a pair is covered only when both of its coordinates are matched
    covered = (p.left.n - len(gs.unmatched)) * (p.right.n - len(hs.unmatched))
    parts = {"diagonals": _diagonals(keys_g, keys_h, p.right.n)}
    return _assemble(p, "ast", "gh", (gs.edges, hs.edges), parts, cls, covered)


def circledast(p: ProductGraph, m_g, m_h) -> ConstructionResult:
    """Diagonals plus both unmatched fills."""
    _require_kind("circledast", p)
    (gs, (keys_g, open_g)), (hs, (keys_h, open_h)) = (
        index_form(p.left, m_g),
        index_form(p.right, m_h),
    )
    n_h = p.right.n
    cls = _classify_circledast(gs, hs)
    covered = p.left.n * n_h - len(gs.unmatched) * len(hs.unmatched)
    # diagonals touch doubly-matched pairs, each fill touches pairs with
    # exactly one unmatched coordinate on its own side.
    parts = {
        "diagonals": _diagonals(keys_g, keys_h, n_h),
        "left_fill": _moving_right(keys_h, open_g, n_h),
        "right_fill": _moving_left(keys_g, open_h, n_h),
    }
    return _assemble(p, "circledast", "gh", (gs.edges, hs.edges), parts, cls, covered)


CONSTRUCTORS = {"boxast": boxast, "ast": ast, "circledast": circledast}

