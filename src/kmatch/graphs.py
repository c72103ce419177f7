"""Small undirected simple graphs with a fixed vertex order.

Conventions used throughout the package:

* Vertex labels are arbitrary hashable values; product graphs use ordered
  pairs as labels. Every graph fixes a vertex order and stores its edges
  once, as sorted index pairs ``(a, b)`` with ``a < b``; ``Graph.edges``
  derives the label pairs for output. This canonical form is what makes
  witnesses and JSON reports reproducible byte for byte.
* Family names count vertices: ``path(3)`` has three vertices, ``cycle(n)``
  needs ``n >= 3``, ``complete(n)`` is K_n. The exception is ``star(n)``,
  the star with ``n`` leaves (so ``n + 1`` vertices), matching the usual
  S_n naming.
* Text files are edge lists: one ``a b`` pair per line, ``#`` starts a
  comment, and ``v a`` declares an isolated vertex. Labels stay strings.
  JSON documents are ``{"vertices": [...], "edges": [[a, b], ...]}`` and
  keep native label types; arrays inside labels become tuples. Labels
  that Python holds equal but JSON types apart (``true`` and ``1``) are
  refused rather than merged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator

from .errors import InvalidParameter, InvariantViolation, ParseError, SizeLimitExceeded

Vertex = Any
Edge = tuple[Vertex, Vertex]

ISO_MAX_VERTICES = 10


@dataclass(frozen=True)
class Graph:
    """An immutable graph in canonical form.

    Do not call the constructor with raw data; use :func:`make_graph`,
    which validates and canonicalizes. The constructor only asserts.
    """

    vertices: tuple[Vertex, ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        assert len(set(self.vertices)) == n, "duplicate vertex labels"
        pairs = self.pairs
        assert all(0 <= a < b < n for a, b in pairs), "edge endpoints out of canonical order"
        assert all(p < q for p, q in zip(pairs, pairs[1:])), "edge list out of canonical order"

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as label pairs (u before v), in the order of `pairs`."""
        vs = self.vertices
        return tuple([(vs[a], vs[b]) for a, b in self.pairs])

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        # pairs are sorted, so every neighbour list fills in vertex order.
        vs = self.vertices
        nbrs: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
        for a, b in self.pairs:
            nbrs[vs[a]].append(vs[b])
            nbrs[vs[b]].append(vs[a])
        return {v: tuple(ns) for v, ns in nbrs.items()}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.pairs)

    def edge_between(self, u: Vertex, v: Vertex) -> Edge | None:
        """The canonical form of the edge {u, v}, or None if absent."""
        idx = self.index
        if u not in idx or v not in idx or u == v:
            return None
        e = (u, v) if idx[u] < idx[v] else (v, u)
        return e if e in self.edge_set else None

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def induced(self, keep: Iterable[Vertex]) -> "Graph":
        """Induced subgraph; vertex order is inherited from this graph."""
        kept = set(keep)
        assert kept <= set(self.vertices)
        old = [i for i, v in enumerate(self.vertices) if v in kept]
        at = {i: t for t, i in enumerate(old)}  # old index -> new index
        pairs = tuple([(at[a], at[b]) for a, b in self.pairs if a in at and b in at])
        return Graph(tuple(self.vertices[i] for i in old), pairs)


def make_graph(vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    """Validate raw vertex/edge data and return the canonical Graph.

    Raises InvariantViolation on repeated labels, loops, duplicate edges,
    or edges with endpoints that are not declared vertices.
    """
    vs = tuple(vertices)
    pos: dict[Vertex, int] = {}
    for v in vs:
        if v in pos:
            raise InvariantViolation(f"repeated vertex label {v!r}")
        pos[v] = len(pos)
    keys: set[tuple[int, int]] = set()
    for u, v in edges:
        if u not in pos or v not in pos:
            raise InvariantViolation(f"edge ({u!r}, {v!r}) has a dangling endpoint")
        if u == v:
            raise InvariantViolation(f"loop at {u!r}")
        key = (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
        if key in keys:
            raise InvariantViolation(f"duplicate edge ({u!r}, {v!r})")
        keys.add(key)
    return Graph(vs, tuple(sorted(keys)))


def build_named(family: str, n: int) -> Graph:
    """Build one of the standard families: path, cycle, complete, star.

    ``n`` counts vertices except for ``star``, where it counts leaves.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParameter(f"n must be a positive integer, got {n!r}")
    if family == "path":
        return make_graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise InvalidParameter("a cycle needs at least 3 vertices")
        return make_graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        return make_graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "star":
        # vertex 0 is the center; n leaves.
        return make_graph(range(n + 1), [(0, i) for i in range(1, n + 1)])
    raise InvalidParameter(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# parsing and serialization


def _labels_from_json(obj: Any) -> Any:
    # JSON arrays inside labels become tuples so product vertices round-trip.
    if isinstance(obj, list):
        return tuple(_labels_from_json(x) for x in obj)
    return obj


def _decode_labels(raw: list) -> list:
    try:
        return [_labels_from_json(x) for x in raw]
    except RecursionError:
        raise ParseError("labels nested too deeply") from None


def _refuse_constant(name: str) -> Any:
    raise ParseError(f"bad JSON: {name} is not a JSON value")


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None


def _label_type(label: Any) -> Any:
    """The JSON type of a decoded label, element by element for arrays."""
    if isinstance(label, tuple):
        return tuple(_label_type(x) for x in label)
    if isinstance(label, str):
        try:
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"label {label!r} is not valid Unicode") from None
    return type(label)


def _check_labels(labels: Iterable[Vertex]) -> None:
    """Refuse labels that cannot be vertices.

    Labels must be hashable (scalars or arrays), their strings must be
    valid Unicode so they can be printed, and two labels that Python
    holds equal must have the same JSON type: true and 1, or 1.0 and 1,
    would otherwise merge silently into one vertex.
    """
    first: dict[Vertex, Vertex] = {}
    try:
        for label in labels:
            seen = first.setdefault(label, label)
            if _label_type(seen) != _label_type(label):
                raise ParseError(
                    f"labels {label_text(seen)} and {label_text(label)} are equal "
                    "but differ in JSON type"
                )
    except TypeError:
        raise ParseError("vertex labels must be scalars or arrays") from None
    except RecursionError:
        raise ParseError("labels nested too deeply") from None


def _json_edges(items: Any) -> list[tuple[Vertex, Vertex]]:
    """The [[a, b], ...] edge array of a JSON document, labels decoded."""
    if not isinstance(items, list):
        raise ParseError(f"JSON 'edges' must be an array of edges, got {items!r}")
    for item in items:
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(f"edge entries must be two-element arrays, got {item!r}")
    labels = _decode_labels([x for item in items for x in item])
    return list(zip(labels[::2], labels[1::2]))


def _labels_to_json(obj: Any) -> Any:
    if isinstance(obj, tuple):
        return [_labels_to_json(x) for x in obj]
    return obj


def _edge_list_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, body, fields) per line of an edge-list document that
    is not blank once its '#' comment is cut off."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield lineno, body, body.split()


def parse_graph(text: str) -> Graph:
    """Parse an edge-list or JSON graph document (see module docstring)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = _load_json(text)
        if not isinstance(doc, dict) or "edges" not in doc:
            raise ParseError("JSON graph needs an object with an 'edges' array")
        edges = _json_edges(doc["edges"])
        vertices = doc.get("vertices", [])
        if not isinstance(vertices, list):
            raise ParseError("JSON graph 'vertices' must be an array")
        vertices = _decode_labels(vertices)
        _check_labels([*vertices, *(x for e in edges for x in e)])
        seen = set(vertices)
        for u, v in edges:
            for x in (u, v):
                if x not in seen:
                    vertices.append(x)
                    seen.add(x)
        return make_graph(vertices, edges)
    vertices: list[str] = []
    seen: set[str] = set()
    edges = []

    def note(label: str) -> None:
        if label not in seen:
            vertices.append(label)
            seen.add(label)

    for lineno, body, parts in _edge_list_lines(text):
        if parts[0] == "v":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: vertex lines are 'v <label>'")
            note(parts[1])
        elif len(parts) == 2:
            note(parts[0])
            note(parts[1])
            edges.append((parts[0], parts[1]))
        else:
            raise ParseError(f"line {lineno}: expected 'a b' or 'v a', got {body!r}")
    return make_graph(vertices, edges)


def parse_edge_pairs(text: str, host: Graph | None = None) -> tuple[tuple[Vertex, Vertex], ...]:
    """Parse a matching file: the edges of an edge-list or JSON document.

    Unlike parse_graph this performs no graph validation; the pairs are
    checked against their host graph by the caller. Given the host, JSON
    labels are checked together with its vertices, so a label equal to a
    host vertex in Python but not in JSON type (false and 0) is refused.
    """
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        doc = _load_json(text)
        if isinstance(doc, dict) and "edges" not in doc:
            raise ParseError("JSON matching object needs an 'edges' array")
        edges = _json_edges(doc["edges"] if isinstance(doc, dict) else doc)
        _check_labels([*(host.vertices if host else ()), *(x for e in edges for x in e)])
        return tuple(edges)
    out = []
    for lineno, body, parts in _edge_list_lines(text):
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'a b', got {body!r}")
        out.append((parts[0], parts[1]))
    return tuple(out)


def graph_to_json_obj(g: Graph) -> dict:
    return {
        "vertices": [_labels_to_json(v) for v in g.vertices],
        "edges": [[_labels_to_json(u), _labels_to_json(v)] for u, v in g.edges],
    }


def label_text(v: Vertex) -> str:
    """A compact deterministic string for a vertex label (DOT ids, tables)."""
    return json.dumps(_labels_to_json(v), separators=(",", ":"), sort_keys=True)


def _dot_id(v: Vertex) -> str:
    # A JSON label text never ends in a backslash, so escaping its quotes
    # is enough to make a DOT quoted ID.
    return '"' + label_text(v).replace('"', '\\"') + '"'


def to_dot(g: Graph, name: str = "G") -> str:
    """Render as an undirected DOT graph in canonical order."""
    lines = [f"graph {name} {{"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for u, v in g.edges:
        lines.append(f"  {_dot_id(u)} -- {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure queries


def connected_components(g: Graph) -> tuple[tuple[Vertex, ...], ...]:
    """Partition of the vertices; components and members in vertex order."""
    seen: set[Vertex] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        idx = g.index
        comps.append(tuple(sorted(comp, key=idx.__getitem__)))
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def _neighbor_degree_profile(g: Graph) -> dict[Vertex, tuple[int, tuple[int, ...]]]:
    return {
        v: (g.degree(v), tuple(sorted(g.degree(w) for w in g.adjacency[v])))
        for v in g.vertices
    }


def are_isomorphic_small(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking, for graphs up to 10 vertices.

    Candidate images are pruned by degree and neighbor-degree profiles;
    that plus the size bound keeps the search trivially fast for every use
    in this package (corpus dedup, the C6 scenario, double covers).
    """
    if g1.n > ISO_MAX_VERTICES or g2.n > ISO_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"isomorphism test supports at most {ISO_MAX_VERTICES} vertices"
        )
    if g1.n != g2.n or g1.m != g2.m:
        return False
    prof1 = _neighbor_degree_profile(g1)
    prof2 = _neighbor_degree_profile(g2)
    if sorted(prof1.values()) != sorted(prof2.values()):
        return False

    # map high-degree vertices first: fewer candidates, earlier contradictions.
    order = sorted(g1.vertices, key=lambda v: (-g1.degree(v), g1.index[v]))
    used: set[Vertex] = set()
    image: dict[Vertex, Vertex] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in g2.vertices:
            if w in used or prof2[w] != prof1[v]:
                continue
            ok = True
            for x in g1.adjacency[v]:
                if x in image and g2.edge_between(image[x], w) is None:
                    ok = False
                    break
            if ok:
                # non-adjacency must be preserved too; check mapped non-neighbors.
                nv = set(g1.adjacency[v])
                for x, y in image.items():
                    if x not in nv and g2.edge_between(y, w) is not None:
                        ok = False
                        break
            if ok:
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del image[v]
                used.remove(w)
        return False

    return extend(0)
