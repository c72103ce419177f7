"""Byte pin for the constructions.

Every construction defined on each product kind is built over every pair
of factor sets from the 4-vertex corpus pools, and a canonical JSON record
of the result (edges, parts, recorded factor matchings, classification,
predicted size) is hashed. The digest was taken before the degree-profile
refactor of the constructions; any change to a part, an edge order, a
verdict or a predicted size changes it.
"""

import hashlib
from itertools import product as iproduct

from kmatch.cli import canonical_json
from kmatch.constructions import ast, boxast, circledast
from kmatch.matchings import enumerate_k_matchings
from kmatch.products import product

PINNED = (45056, "c98345ce1c8a2fcc99918513545fa01bd2c2e511f9f8e78fb409279a050bed47")


def matching_pool(g):
    """Every set that is a k-matching for some k in 1..3, deduplicated."""
    pool = {}
    for k in (1, 2, 3):
        for m in enumerate_k_matchings(g, k):
            pool.setdefault(frozenset(m), m)
    return list(pool.values())


def builds(p, m_g, m_h):
    if p.kind in ("cartesian", "strong", "lex"):
        yield boxast(p, m_g, m_h, orientation="gh")
        yield boxast(p, m_g, m_h, orientation="hg")
    if p.kind in ("strong", "direct", "lex"):
        yield ast(p, m_g, m_h)
    if p.kind in ("strong", "lex"):
        yield circledast(p, m_g, m_h)


def record(result) -> str:
    cls = result.classification
    return canonical_json(
        {
            "kind": result.kind,
            "orientation": result.orientation,
            "edges": list(result.edges),
            "parts": {name: list(part) for name, part in result.parts.items()},
            "m_g": list(result.m_g),
            "m_h": list(result.m_h),
            "classification": [cls.is_k_matching, cls.k, cls.factor_ks, cls.condition],
            "predicted_size_for": result.predicted_size,
        }
    )


def test_construction_records_are_pinned(small_corpus):
    digest = hashlib.sha256()
    count = 0
    for (gn, g), (hn, h) in iproduct(small_corpus, small_corpus):
        pool_g, pool_h = matching_pool(g), matching_pool(h)
        for kind in ("cartesian", "strong", "lex", "direct"):
            p = product(g, h, kind)
            for m_g, m_h in iproduct(pool_g, pool_h):
                for result in builds(p, m_g, m_h):
                    digest.update(f"{gn} {hn} {kind}\n".encode())
                    digest.update(record(result).encode())
                    count += 1
    assert (count, digest.hexdigest()) == PINNED
