"""The three matching constructions on graph products.

Given factor edge sets M_G and M_H, the package builds product edge sets
out of four primitive parts:

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

Each result carries a classification: a prediction, computed from the
factor sides only, of whether the produced set is a k-matching and for
which k. The prediction is exact (the test suite compares it against
direct validation over exhaustively enumerated inputs); the condition tags
name which factor regime applied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EdgeNotInFactor,
    IncompatibleProduct,
    InconsistentInputs,
    InvalidParameter,
    InvariantViolation,
)
from .graphs import Edge, Graph
from .matchings import DegreeProfile, canonical_matching, degree_profile
from .products import ProductGraph

BOXAST_KINDS = ("cartesian", "strong", "lex")
AST_KINDS = ("strong", "direct", "lex")
CIRCLEDAST_KINDS = ("strong", "lex")


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

    `unmatched_g` and `unmatched_h` count the vertices that `m_g` and
    `m_h` leave unmatched in their factors, as the construction's own
    factor profiles found them.
    """

    kind: str
    orientation: str
    product: ProductGraph
    m_g: tuple[Edge, ...]
    m_h: tuple[Edge, ...]
    edges: tuple[Edge, ...]
    parts: dict[str, tuple[Edge, ...]]
    classification: Classification
    unmatched_g: int
    unmatched_h: int


_KINDS = {"boxast": BOXAST_KINDS, "ast": AST_KINDS, "circledast": CIRCLEDAST_KINDS}


def _require_kind(kind: str, p: ProductGraph) -> None:
    allowed = _KINDS[kind]
    if p.kind not in allowed:
        raise IncompatibleProduct(
            f"{kind} is undefined on the {p.kind} product; supported kinds: {', '.join(allowed)}"
        )


def _factor_profiles(p: ProductGraph, m_g, m_h) -> tuple[DegreeProfile, DegreeProfile]:
    return (
        degree_profile(p.left, m_g, error=EdgeNotInFactor),
        degree_profile(p.right, m_h, error=EdgeNotInFactor),
    )


def _canonical_in_product(p: ProductGraph, pairs) -> tuple[Edge, ...]:
    # the parts are Cartesian or doubly-moving edges that exist in every
    # supported kind, so a miss here is a bug, not bad input.
    return canonical_matching(p.graph, pairs, error=InvariantViolation)


def _split_by_shape(edges: tuple[Edge, ...]) -> tuple[tuple[Edge, ...], ...]:
    """(edges moving only the left coordinate, only the right one, both),
    each in canonical order: every part has exactly one of these shapes."""
    left, right, diagonal = [], [], []
    for e in edges:
        (x1, y1), (x2, y2) = e
        (left if y1 == y2 else right if x1 == x2 else diagonal).append(e)
    return tuple(left), tuple(right), tuple(diagonal)


# the four primitive parts ---------------------------------------------------


def copies_in_left_layers(m_g, h: Graph):
    return [((a, y), (b, y)) for (a, b) in m_g for y in h.vertices]


def copies_in_right_layers(m_h, g: Graph):
    return [((x, c), (x, d)) for (c, d) in m_h for x in g.vertices]


def fill_over_left_unmatched(unmatched_g, m_h):
    return [((u, c), (u, d)) for u in unmatched_g for (c, d) in m_h]


def fill_over_right_unmatched(unmatched_h, m_g):
    return [((a, w), (b, w)) for w in unmatched_h for (a, b) in m_g]


def diagonals(m_g, m_h):
    out = []
    for a, b in m_g:
        for c, d in m_h:
            out.append(((a, c), (b, d)))
            out.append(((a, d), (b, c)))
    return out


# classification from the factor profiles -------------------------------------


def _classify(
    kind: str, gs: DegreeProfile, hs: DegreeProfile, orientation: str = "gh"
) -> Classification:
    if kind == "boxast":
        primary = gs if orientation == "gh" else hs
        if primary.perfect:
            return Classification(True, primary.uniform, None, "perfect-primary")
        if gs.valid and hs.valid:
            if gs.empty and hs.empty:
                k = 1
            elif gs.empty:
                k = hs.uniform
            elif hs.empty:
                k = gs.uniform
            elif gs.uniform == hs.uniform:
                k = gs.uniform
            else:
                return Classification(False, None, None, "none")
            return Classification(True, k, None, "both-matchings")
        return Classification(False, None, None, "none")
    if kind == "ast":
        if gs.valid and hs.valid:
            if gs.empty or hs.empty:
                return Classification(True, 1, (1, 1), "factored")
            return Classification(True, gs.uniform * hs.uniform, (gs.uniform, hs.uniform), "factored")
        if gs.empty or hs.empty:
            # the produced set is empty, hence trivially a k-matching, but no
            # factor regime explains it (the other side is not a matching).
            return Classification(True, 1, (1, 1), "none")
        return Classification(False, None, None, "none")
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
    return Classification(False, None, None, "none")


def classify_construction(
    kind: str, p: ProductGraph, m_g, m_h, orientation: str = "gh"
) -> Classification:
    """Predict, from the factors alone, whether the construction is a
    k-matching of the product, and under which condition."""
    if orientation not in ("gh", "hg"):
        raise InvalidParameter(f"orientation must be gh or hg, got {orientation!r}")
    gs, hs = _factor_profiles(p, m_g, m_h)
    if kind not in _KINDS:
        raise InvalidParameter(f"unknown construction kind {kind!r}")
    _require_kind(kind, p)
    return _classify(kind, gs, hs, orientation)


# the constructions ----------------------------------------------------------
#
# Each one profiles its factor sets once and canonicalizes the union of
# its raw parts once; the parts are then read back out by edge shape.


def boxast(
    p: ProductGraph, m_g, m_h, orientation: str = "gh", normalize: bool = True
) -> ConstructionResult:
    """Layer copies of the primary matching plus fill over its unmatched
    vertices.

    With normalize on (the default), a perfect primary matching forces the
    recorded secondary to the empty set. That never changes the edge set
    (a perfect primary leaves nothing to fill) but keeps the reported
    parts in the canonical form the characterizations assume.
    """
    _require_kind("boxast", p)
    if orientation not in ("gh", "hg"):
        raise InvalidParameter(f"orientation must be gh or hg, got {orientation!r}")
    gs, hs = _factor_profiles(p, m_g, m_h)
    mg, mh = gs.edges, hs.edges
    # a perfect primary settles the classification alone, so the profiles
    # of the inputs still classify the normalized pair.
    if normalize:
        if orientation == "gh" and gs.perfect:
            mh = ()
        elif orientation == "hg" and hs.perfect:
            mg = ()
    if orientation == "gh":
        copies = copies_in_left_layers(mg, p.right)
        fill = fill_over_left_unmatched(gs.unmatched, mh)
    else:
        copies = copies_in_right_layers(mh, p.left)
        fill = fill_over_right_unmatched(hs.unmatched, mg)
    edges = _canonical_in_product(p, copies + fill)
    # the copies saturate every matched column, the fill lives over the
    # unmatched ones: the parts can never share a vertex.
    assert len(edges) == len(copies) + len(fill)
    moves_left, moves_right, _ = _split_by_shape(edges)
    if orientation == "gh":
        copies, fill = moves_left, moves_right
    else:
        copies, fill = moves_right, moves_left
    return ConstructionResult(
        kind="boxast",
        orientation=orientation,
        product=p,
        m_g=mg,
        m_h=mh,
        edges=edges,
        parts={"layer_copies": copies, "unmatched_fill": fill},
        classification=_classify("boxast", gs, hs, orientation),
        # a side normalized away is recorded empty: it matches nothing.
        unmatched_g=len(gs.unmatched) if mg else p.left.n,
        unmatched_h=len(hs.unmatched) if mh else p.right.n,
    )


def ast(p: ProductGraph, m_g, m_h) -> ConstructionResult:
    """The two diagonals of every matched pair of factor edges."""
    _require_kind("ast", p)
    gs, hs = _factor_profiles(p, m_g, m_h)
    edges = _canonical_in_product(p, diagonals(gs.edges, hs.edges))
    assert len(edges) == 2 * len(gs.edges) * len(hs.edges)
    return ConstructionResult(
        kind="ast",
        orientation="gh",
        product=p,
        m_g=gs.edges,
        m_h=hs.edges,
        edges=edges,
        parts={"diagonals": edges},
        classification=_classify("ast", gs, hs),
        unmatched_g=len(gs.unmatched),
        unmatched_h=len(hs.unmatched),
    )


def circledast(p: ProductGraph, m_g, m_h) -> ConstructionResult:
    """Diagonals plus both unmatched fills."""
    _require_kind("circledast", p)
    gs, hs = _factor_profiles(p, m_g, m_h)
    core = diagonals(gs.edges, hs.edges)
    left_fill = fill_over_left_unmatched(gs.unmatched, hs.edges)
    right_fill = fill_over_right_unmatched(hs.unmatched, gs.edges)
    edges = _canonical_in_product(p, core + left_fill + right_fill)
    # diagonals touch doubly-matched pairs, each fill touches pairs with
    # exactly one unmatched coordinate on its own side: pairwise disjoint.
    assert len(edges) == len(core) + len(left_fill) + len(right_fill)
    right_fill, left_fill, core = _split_by_shape(edges)
    return ConstructionResult(
        kind="circledast",
        orientation="gh",
        product=p,
        m_g=gs.edges,
        m_h=hs.edges,
        edges=edges,
        parts={"diagonals": core, "left_fill": left_fill, "right_fill": right_fill},
        classification=_classify("circledast", gs, hs),
        unmatched_g=len(gs.unmatched),
        unmatched_h=len(hs.unmatched),
    )


CONSTRUCTORS = {"boxast": boxast, "ast": ast, "circledast": circledast}


# size prediction ------------------------------------------------------------


def _check_factor(k: int, n: int, u: int, size: int, side: str) -> None:
    if k * (n - u) != 2 * size:
        raise InconsistentInputs(
            f"{side} factor: k(n-u)/2 = {k}*({n}-{u})/2 does not equal |m| = {size}"
        )


def predicted_size(
    kind: str,
    n_g: int,
    n_h: int,
    size_g: int,
    size_h: int,
    u_g: int,
    u_h: int,
    k: int | None = None,
    factor_ks: tuple[int, int] | None = None,
) -> int:
    """Closed-form size of a valid construction from factor summaries.

    boxast and circledast cover n_g*n_h - u_g*u_h vertex pairs k/2 times
    each; ast pairs every matched edge with every matched edge twice. The
    factor summaries must satisfy the counting identity k(n-u)/2 = |m| on
    both sides or the request is refused as inconsistent.
    """
    if kind == "boxast":
        if k is None:
            raise InvalidParameter("boxast prediction needs k")
        _check_factor(k, n_g, u_g, size_g, "left")
        _check_factor(k, n_h, u_h, size_h, "right")
        total = k * (n_g * n_h - u_g * u_h)
        assert total % 2 == 0
        return total // 2
    if kind == "ast":
        if factor_ks is None:
            raise InvalidParameter("ast prediction needs (k_G, k_H)")
        k_g, k_h = factor_ks
        _check_factor(k_g, n_g, u_g, size_g, "left")
        _check_factor(k_h, n_h, u_h, size_h, "right")
        return 2 * size_g * size_h
    if kind == "circledast":
        if factor_ks is None:
            raise InvalidParameter("circledast prediction needs (k_G, k_H)")
        k_g, k_h = factor_ks
        _check_factor(k_g, n_g, u_g, size_g, "left")
        _check_factor(k_h, n_h, u_h, size_h, "right")
        total = k_g * k_h * (n_g * n_h - u_g * u_h)
        assert total % 2 == 0
        return total // 2
    raise InvalidParameter(f"unknown construction kind {kind!r}")


def predicted_size_for(result: ConstructionResult) -> int | None:
    """predicted_size with the scalars taken from a construction result.

    Returns None when the construction is not a valid k-matching (the
    formulas only speak about valid ones).
    """
    cls = result.classification
    if not cls.is_k_matching:
        return None
    if result.kind == "ast" and (not result.m_g or not result.m_h):
        # an empty side empties the diagonals no matter what the other
        # side looks like; the factor identity need not hold there.
        return 0
    p = result.product
    return predicted_size(
        result.kind,
        p.left.n,
        p.right.n,
        len(result.m_g),
        len(result.m_h),
        result.unmatched_g,
        result.unmatched_h,
        k=cls.k,
        factor_ks=cls.factor_ks,
    )
