"""Graph container, parsing, serialization, and small-graph utilities."""

import json

import pytest
from hypothesis import given, strategies as st

from kmatch.corpus import connected_graphs_upto
from kmatch.errors import InvalidParameter, InvariantViolation, ParseError
from kmatch.graphs import (
    Graph,
    are_isomorphic_small,
    build_named,
    connected_components,
    graph_to_json_obj,
    is_connected,
    make_graph,
    parse_edge_pairs,
    parse_graph,
    to_dot,
)
from kmatch.matchings import enumerate_k_matchings
from kmatch.products import KINDS, product
from kmatch.weakhom import allowed_edges


def test_edges_are_canonicalized():
    # endpoint order and edge order follow vertex position, not label sort
    g = make_graph([3, 1, 2], [(1, 3), (2, 3)])
    assert g.vertices == (3, 1, 2)
    assert g.edges == ((3, 1), (3, 2))
    assert g.n == 3 and g.m == 2


def test_duplicate_edges_rejected():
    with pytest.raises(InvariantViolation):
        make_graph([0, 1], [(0, 1), (1, 0)])


def test_self_loops_rejected():
    with pytest.raises(InvariantViolation):
        make_graph([0, 1], [(0, 0)])


def test_edge_with_unknown_endpoint_rejected():
    with pytest.raises(InvariantViolation):
        make_graph([0, 1], [(0, 2)])


def test_degree_and_edge_between():
    g = build_named("path", 3)
    assert [g.degree(v) for v in g.vertices] == [1, 2, 1]
    assert g.edge_between(1, 0) == (0, 1)
    assert g.edge_between(0, 2) is None


def test_named_families():
    assert build_named("path", 3).m == 2
    assert build_named("cycle", 4).m == 4
    assert build_named("complete", 4).m == 6
    star = build_named("star", 3)  # 3 leaves around a center
    assert star.n == 4 and star.m == 3
    assert sorted(star.degree(v) for v in star.vertices) == [1, 1, 1, 3]


def test_named_family_validation():
    with pytest.raises(InvalidParameter):
        build_named("cycle", 2)
    with pytest.raises(InvalidParameter):
        build_named("moebius", 5)
    with pytest.raises(InvalidParameter):
        build_named("path", 0)


def test_parse_text_edge_list_labels_are_strings():
    g = parse_graph("# comment\na b\nb c\n\nc a\n")
    assert g.vertices == ("a", "b", "c")
    assert g.m == 3


def test_parse_text_isolated_vertex_line():
    g = parse_graph("a b\nv c\n")
    assert g.vertices == ("a", "b", "c")
    assert g.degree("c") == 0


def test_parse_text_bare_token_rejected():
    with pytest.raises(ParseError):
        parse_graph("a b\nc\n")


def test_parse_json_round_trip():
    g = build_named("cycle", 5)
    again = parse_graph(json.dumps(graph_to_json_obj(g)))
    assert again == g


def test_parse_json_rejects_malformed():
    with pytest.raises(ParseError):
        parse_graph('{"vertices": [0, 1]}')
    with pytest.raises(ParseError):
        parse_graph('{"vertices": [0], "edges": [[0]]}')


def test_parse_json_refuses_labels_equal_across_types():
    # true == 1 and 1.0 == 1 in Python; as vertices they would merge.
    for doc in (
        '{"edges": [[true, 2], [1, 3]]}',
        '{"edges": [[1.0, 2], [1, 3]]}',
        '{"vertices": [1], "edges": [[1.0, 2]]}',
        '{"edges": [[[1, true], 2], [[1, 1], 3]]}',
    ):
        with pytest.raises(ParseError, match="differ in JSON type"):
            parse_graph(doc)
    with pytest.raises(ParseError, match="differ in JSON type"):
        parse_edge_pairs("[[true, 2], [1, 3]]")
    with pytest.raises(ParseError, match="differ in JSON type"):
        parse_edge_pairs('{"edges": [[0, 1], [false, 2]]}')
    # equal labels of one type are one vertex, as before
    g = parse_graph('{"vertices": [1, 2, 3, 4], "edges": [[1, 2], [3, 4], [1.5, 2]]}')
    assert g.vertices == (1, 2, 3, 4, 1.5) and g.m == 3


def test_parse_json_refuses_labels_json_cannot_carry():
    for doc in (
        '{"edges": [[NaN, NaN]]}',
        '{"edges": [[Infinity, 1]]}',
        '{"edges": [["\\ud800", "b"]]}',
        '{"edges": [[' + "[" * 2000 + "1" + "]" * 2000 + ", 2]]}",
        '{"edges": [[' + "[" * 600 + "1" + "]" * 600 + ", 2]]}",
    ):
        with pytest.raises(ParseError):
            parse_graph(doc)


def test_parse_text_rejects_wide_rows():
    with pytest.raises(ParseError):
        parse_graph("a b c\n")


def test_parse_edge_pairs_line_format():
    assert parse_edge_pairs("0 1\n1 2\n") == (("0", "1"), ("1", "2"))
    assert parse_edge_pairs("[[0, 1]]") == ((0, 1),)


def test_dot_output_mentions_every_edge():
    g = build_named("path", 3)
    dot = to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("--") == g.m


def test_connected_components_and_connectivity():
    g = make_graph(range(5), [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert sorted(len(c) for c in comps) == [1, 2, 2]
    assert not is_connected(g)
    assert is_connected(build_named("cycle", 4))


def test_induced_subgraph():
    g = build_named("complete", 4)
    sub = g.induced((0, 1, 2))
    assert sub.n == 3 and sub.m == 3
    # a non-prefix subset, given out of order: indices are remapped into
    # the kept vertices' inherited order
    g = make_graph("abcde", [("a", "b"), ("b", "d"), ("b", "e"), ("c", "d"), ("d", "e")])
    sub = g.induced(("e", "b", "d"))
    assert sub.vertices == ("b", "d", "e")
    assert sub.pairs == ((0, 1), (0, 2), (1, 2))
    assert sub.edges == (("b", "d"), ("b", "e"), ("d", "e"))


@pytest.mark.parametrize(
    "vertices, pairs",
    [
        ((0, 1, 2), ((1, 0),)),  # descending pair
        ((0, 1, 2), ((0, 3),)),  # index out of range
        ((0, 1, 2), ((-1, 1),)),  # negative index
        ((0, 1, 2), ((0, 1), (0, 1))),  # repeated pair
        ((0, 1, 2), ((1, 2), (0, 1))),  # unsorted pair list
        ((0, 1, 1), ((0, 1),)),  # repeated labels
    ],
    ids=["descending", "out-of-range", "negative", "repeated-pair", "unsorted", "repeated-label"],
)
def test_constructor_asserts_canonical_pairs(vertices, pairs):
    with pytest.raises(AssertionError):
        Graph(vertices, pairs)


def test_graphs_built_from_pairs_equal_their_label_form():
    # Equality and hashing follow (vertices, pairs); a graph built from
    # index pairs must equal and hash like the one make_graph builds from
    # its labels, or the oracle memo would miss equal products.
    def same(g):
        twin = make_graph(g.vertices, g.edges)
        assert twin == g and hash(twin) == hash(g), g

    corpus = connected_graphs_upto(3)
    for g in corpus:
        for h in corpus:
            for kind in KINDS:
                p = product(g, h, kind)
                same(p.graph)
                same(p.graph.induced(p.graph.vertices[::2]))
                same(p.graph.induced(p.graph.vertices[1::2]))
                for m_g in enumerate_k_matchings(g, 1):
                    for m_h in enumerate_k_matchings(h, 1):
                        same(allowed_edges(p, m_g, m_h))


def test_isomorphism_degree_aware():
    assert are_isomorphic_small(build_named("path", 4), parse_graph("a b\nb c\nc d\n"))
    assert not are_isomorphic_small(build_named("path", 4), build_named("star", 3))
    assert not are_isomorphic_small(build_named("path", 3), build_named("path", 4))


@given(st.integers(min_value=2, max_value=7))
def test_complete_graph_counts(n):
    g = build_named("complete", n)
    assert g.m == n * (n - 1) // 2
    assert all(g.degree(v) == n - 1 for v in g.vertices)


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
        max_size=12,
        unique_by=lambda e: frozenset(e),
    )
)
def test_make_graph_canonical_is_idempotent(pairs):
    vertices = sorted({v for e in pairs for v in e} | {0})
    g = make_graph(vertices, pairs)
    assert make_graph(g.vertices, g.edges) == g
    # vertices are sorted here, so positional order matches label order
    assert all(a < b for a, b in g.edges)
    assert g.edges == tuple(sorted(g.edges))
