"""Reference implementations by raw subset enumeration.

Everything here recomputes from first principles over plain vertex and
edge sequences, deliberately sharing no code with the package, so the
package's oracles and enumerators are checked by an independent route.
Exponential in the edge count; callers keep instances small. The one
exception is `all_max_pairs`, which keeps the label-level route of the
package's public API as the reference for its index-space one.
"""

from itertools import combinations

from kmatch import constructions, matchings


def degree_profile(vertices, subset):
    deg = {v: 0 for v in vertices}
    for a, b in subset:
        deg[a] += 1
        deg[b] += 1
    return deg


def is_k_matching(vertices, subset, k):
    return all(d == 0 or d == k for d in degree_profile(vertices, subset).values())


def all_k_matchings(vertices, edges, k):
    """Every k-matching as a tuple of edges, the empty one included."""
    found = []
    for r in range(len(edges) + 1):
        for combo in combinations(edges, r):
            if is_k_matching(vertices, combo, k):
                found.append(combo)
    return found


def maximum_size(vertices, edges, k):
    return max(len(m) for m in all_k_matchings(vertices, edges, k))


def lex_min_maximum(vertices, edges, k):
    """The lexicographically smallest maximum, as sorted edge positions."""
    index = {e: i for i, e in enumerate(edges)}
    best = maximum_size(vertices, edges, k)
    return min(
        tuple(sorted(index[e] for e in m))
        for m in all_k_matchings(vertices, edges, k)
        if len(m) == best
    )


def unmatched_at_maximum(vertices, edges, k):
    best = maximum_size(vertices, edges, k)
    profile = degree_profile(
        vertices,
        next(m for m in all_k_matchings(vertices, edges, k) if len(m) == best),
    )
    return sum(1 for d in profile.values() if d == 0)


def is_maximal(vertices, edges, subset, k):
    """No strict k-matching superset exists."""
    chosen = set(subset)
    rest = [e for e in edges if e not in chosen]
    for r in range(1, len(rest) + 1):
        for extra in combinations(rest, r):
            if is_k_matching(vertices, list(chosen) + list(extra), k):
                return False
    return True


def project(factor_edges, a, b):
    """Where one side of a product edge lands in its factor, given the two
    coordinates a and b on that side: ("collapsed", a) when they are
    equal, ("edge", e) when {a, b} is the factor edge e, and otherwise
    ("non_edge", (a, b))."""
    if a == b:
        return ("collapsed", a)
    for e in factor_edges:
        if set(e) == {a, b}:
            return ("edge", e)
    return ("non_edge", (a, b))


def preserving_edges(g_edges, h_edges, product_edges, m_g, m_h):
    """The product edges that project, on each side, onto a factor matching
    edge or onto a single vertex."""
    kept = []
    for (a, c), (b, d) in product_edges:
        sides = (project(g_edges, a, b), m_g), (project(h_edges, c, d), m_h)
        if all(tag == "collapsed" or (tag == "edge" and item in m) for (tag, item), m in sides):
            kept.append(((a, c), (b, d)))
    return kept


def is_bipartite(vertices, edges):
    """Two-colourable, by breadth-first search from every uncoloured vertex."""
    colour = {}
    for start in vertices:
        if start in colour:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            x = queue.pop(0)
            for a, b in edges:
                if x not in (a, b):
                    continue
                y = b if a == x else a
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    queue.append(y)
                elif colour[y] == colour[x]:
                    return False
    return True


def all_max_pairs(p, max_g, max_h, k, size, orientation):
    """Conditions 2 and 3 of the equivalence suite by the public route:
    the boxast of every pair of maximum factor k-matchings, built with
    `boxast` and validated with `degree_profile`, is a k-matching of the
    product with `size` edges."""
    for m_g in max_g:
        for m_h in max_h:
            built = constructions.boxast(p, m_g, m_h, orientation=orientation)
            profile = matchings.degree_profile(p.graph, built.edges)
            if profile.uniform not in (0, k) or len(built.edges) != size:
                return False
    return True
