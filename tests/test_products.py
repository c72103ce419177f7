"""The four products: edge counts, containments, layers, the reference build."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kmatch.corpus import connected_graphs_upto
from kmatch.errors import UnsupportedKind
from kmatch.graphs import are_isomorphic_small, build_named, make_graph
from kmatch.products import KINDS, product


def edge_count(kind, g, h):
    """Closed forms for |E| of each product."""
    if kind == "cartesian":
        return g.n * h.m + h.n * g.m
    if kind == "strong":
        return g.n * h.m + h.n * g.m + 2 * g.m * h.m
    if kind == "direct":
        return 2 * g.m * h.m
    return h.n * h.n * g.m + g.n * h.m  # lex


small = st.sampled_from(
    [
        build_named("path", 2),
        build_named("path", 3),
        build_named("path", 4),
        build_named("cycle", 3),
        build_named("cycle", 4),
        build_named("complete", 4),
        build_named("star", 3),
        make_graph([0], []),
    ]
)


@given(small, small, st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_edge_count_formulas(g, h, kind):
    p = product(g, h, kind)
    assert p.graph.n == g.n * h.n
    assert p.graph.m == edge_count(kind, g, h)


@given(small, small)
@settings(max_examples=40, deadline=None)
def test_edge_set_containments(g, h):
    cart = set(product(g, h, "cartesian").graph.edges)
    strong = set(product(g, h, "strong").graph.edges)
    direct = set(product(g, h, "direct").graph.edges)
    lex = set(product(g, h, "lex").graph.edges)
    assert cart <= strong <= lex
    assert direct <= strong
    assert strong == cart | direct


@given(small, small, st.sampled_from(["cartesian", "strong", "direct"]))
@settings(max_examples=40, deadline=None)
def test_commutative_kinds_commute(g, h, kind):
    if g.n * h.n > 10:
        return  # isomorphism helper is capped at 10 vertices
    assert are_isomorphic_small(product(g, h, kind).graph, product(h, g, kind).graph)


def test_lex_does_not_commute():
    g = build_named("path", 3)
    h = build_named("complete", 2)
    assert not are_isomorphic_small(product(g, h, "lex").graph, product(h, g, "lex").graph)


def test_unknown_kind_rejected():
    with pytest.raises(UnsupportedKind):
        product(build_named("path", 2), build_named("path", 2), "tensor")


def test_k2_direct_k3_is_a_hexagon():
    p = product(build_named("complete", 2), build_named("complete", 3), "direct")
    assert are_isomorphic_small(p.graph, build_named("cycle", 6))


def test_k2_strong_k2_is_k4():
    p = product(build_named("complete", 2), build_named("complete", 2), "strong")
    assert are_isomorphic_small(p.graph, build_named("complete", 4))


def test_layers_are_factor_copies():
    # a layer freezes one coordinate; the direct product has none
    g = build_named("path", 3)
    h = build_named("cycle", 4)
    for kind in ("cartesian", "strong", "lex"):
        p = product(g, h, kind)
        for anchor in h.vertices:
            assert are_isomorphic_small(p.graph.induced([(x, anchor) for x in g.vertices]), g)
    # right layers of the lex product are still factor copies
    p = product(g, h, "lex")
    for anchor in g.vertices:
        assert are_isomorphic_small(p.graph.induced([(anchor, y) for y in h.vertices]), h)


def test_direct_product_of_bipartite_disconnects():
    p = product(build_named("path", 3), build_named("complete", 2), "direct")
    from kmatch.graphs import connected_components

    assert len(connected_components(p.graph)) == 2


def pairwise_product(g, h, kind):
    """Reference build: test every pair of product vertices against the
    adjacency rule of the kind, in left-major order."""
    vertices = tuple((x, y) for x in g.vertices for y in h.vertices)
    g_edges = {frozenset(e) for e in g.edges}
    h_edges = {frozenset(e) for e in h.edges}
    edges = []
    for i, (a, c) in enumerate(vertices):
        for b, d in vertices[i + 1 :]:
            eg = frozenset((a, b)) in g_edges
            eh = frozenset((c, d)) in h_edges
            adjacent = {
                "cartesian": (eg and c == d) or (a == b and eh),
                "strong": (eg and c == d) or (a == b and eh) or (eg and eh),
                "direct": eg and eh,
                "lex": eg or (a == b and eh),
            }[kind]
            if adjacent:
                edges.append(((a, c), (b, d)))
    return vertices, tuple(edges)


def relabeled(g, rng):
    """g with fresh labels and its vertex order shuffled."""
    names = rng.sample(range(100), g.n)
    rename = dict(zip(g.vertices, names))
    order = [rename[v] for v in g.vertices]
    rng.shuffle(order)
    return make_graph(order, [(rename[u], rename[v]) for u, v in g.edges])


def test_product_matches_the_pairwise_reference():
    rng = random.Random(7)
    corpus = list(connected_graphs_upto(5))
    shuffled = [relabeled(g, rng) for g in corpus]
    lettered = [
        make_graph(["b", "a", "c"], [("a", "b"), ("c", "a")]),
        make_graph(["z", "x", "y", "w"], [("y", "x"), ("w", "z"), ("x", "w")]),
    ]
    edge_cases = [make_graph([0], []), make_graph([], [])]
    pairs = [(g, h) for g in corpus for h in corpus]
    pairs += [(g, h) for g in shuffled for h in shuffled[::3]]
    extra = lettered + edge_cases + corpus[3:6]
    pairs += [(g, h) for g in extra for h in extra]
    for g, h in pairs:
        for kind in KINDS:
            p = product(g, h, kind).graph
            assert (p.vertices, p.edges) == pairwise_product(g, h, kind), (g, h, kind)
    assert len(pairs) * len(KINDS) == 5404


def test_product_index_is_left_major():
    # the constructions build product edges as index pairs i_G * n_H + i_H
    rng = random.Random(11)
    corpus = list(connected_graphs_upto(4))
    factors = corpus + [relabeled(g, rng) for g in corpus]
    factors.append(make_graph(["b", "a", "c"], [("a", "b"), ("c", "a")]))
    for g, h in [(g, h) for g in factors for h in factors[::4]]:
        gi, hi = g.index, h.index
        for kind in KINDS:
            p = product(g, h, kind)
            for x in g.vertices:
                for y in h.vertices:
                    assert p.graph.index[(x, y)] == gi[x] * h.n + hi[y], (g, h, kind)
            assert p.graph.pairs == tuple(
                (gi[a] * h.n + hi[c], gi[b] * h.n + hi[d]) for (a, c), (b, d) in p.graph.edges
            )
