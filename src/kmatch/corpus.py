"""Deterministic corpora of small test graphs.

The built-in corpus is every connected graph up to isomorphism with at
most a requested number of vertices (1, 1, 2, 6, 21 graphs for one
through five vertices), a number no larger than `CORPUS_MAX_VERTICES`.
Representatives are canonical: vertices are 0..n-1 and, among the
isomorphic candidates, the lexicographically smallest edge bitmask (over
the canonical pair order) is kept, so the corpus ordering never changes
between runs.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .errors import CorpusError, KmatchError, SizeLimitExceeded
from .graphs import Graph, are_isomorphic_small, is_connected, parse_graph

CORPUS_SUFFIXES = (".txt", ".json", ".edges")
# the built-in corpus walks all 2^(n(n-1)/2) edge sets on n vertices: 7
# vertices take minutes, 8 would take hours.
CORPUS_MAX_VERTICES = 7


def _check_corpus_order(n: int) -> None:
    if n > CORPUS_MAX_VERTICES:
        raise SizeLimitExceeded(
            f"the built-in corpus supports at most {CORPUS_MAX_VERTICES} vertices, got {n}"
        )


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, up to isomorphism."""
    if n < 1:
        raise CorpusError("the corpus needs at least one vertex")
    _check_corpus_order(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    vertices = tuple(range(n))
    kept: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[t] for t in range(len(pairs)) if mask >> t & 1)
        g = Graph(vertices, edges)
        if not is_connected(g):
            continue
        key = (g.m, tuple(sorted(map(len, g.neighbors))))
        bucket = buckets.setdefault(key, [])
        if any(are_isomorphic_small(g, other) for other in bucket):
            continue
        bucket.append(g)
        kept.append(g)
    return tuple(kept)


@lru_cache(maxsize=None)
def connected_graphs_upto(max_n: int) -> tuple[Graph, ...]:
    if max_n < 1:
        raise CorpusError(f"the corpus needs at least one vertex, got a bound of {max_n}")
    # refused before the smaller orders are built
    _check_corpus_order(max_n)
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(connected_graphs(n))
    return tuple(out)


def corpus_names(graphs: tuple[Graph, ...]) -> list[str]:
    """Stable display names: n<v>e<m>#<serial within that shape>."""
    seen: dict[tuple[int, int], int] = {}
    names = []
    for g in graphs:
        serial = seen.get((g.n, g.m), 0)
        seen[(g.n, g.m)] = serial + 1
        names.append(f"n{g.n}e{g.m}#{serial}")
    return names


def load_corpus_dir(path: str | Path) -> tuple[tuple[str, Graph], ...]:
    """Read every graph file from a directory, sorted by file name."""
    root = Path(path)
    if not root.is_dir():
        raise CorpusError(f"{root} is not a directory")
    out = []
    for file in sorted(root.iterdir()):
        if file.suffix not in CORPUS_SUFFIXES or not file.is_file():
            continue
        try:
            out.append((file.name, parse_graph(file.read_text())))
        except (OSError, UnicodeDecodeError, KmatchError) as exc:
            raise CorpusError(f"{file}: {exc}") from exc
    if not out:
        raise CorpusError(f"{root} holds no graph files ({', '.join(CORPUS_SUFFIXES)})")
    return tuple(out)
