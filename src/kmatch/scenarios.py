"""Bundled worked examples with self-validating expectations.

Each scenario builds a concrete instance, measures it, and compares the
measurements against frozen expected values. Expectations carry a
provenance marker:

* claimed: the source narrative asserts this outcome
* derived: recomputed here by an exact oracle or direct counting
* trivial: immediate from definitions

A scenario passes only if every expectation matches exactly (all values
are integers or booleans; there are no tolerances).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .constructions import ast, boxast
from .errors import KmatchError, ScenarioError
from .graphs import Graph, are_isomorphic_small, build_named
from .matchings import DEFAULT_NODE_BUDGET, MatchingClass, classify_matching, max_k_matching
from .products import ProductGraph, product
from .wellbehaved import check_boxast


@dataclass(frozen=True)
class Expectation:
    label: str
    expected: object
    provenance: str  # claimed | derived | trivial


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    description: str
    factors: tuple[str, str]
    star: str
    k: int
    construction: str | None
    expectations: tuple[Expectation, ...]
    measure: Callable[[int], dict]


@dataclass(frozen=True)
class RunReport:
    name: str
    measured: dict
    checks: tuple[dict, ...]  # label, expected, actual, provenance, ok
    passed: bool
    seconds: float


def _measure_s3k3_perfect(budget: int) -> dict:
    s3 = build_named("star", 3)
    k3 = build_named("complete", 3)
    p = product(s3, k3, "cartesian")
    left = max_k_matching(s3, 1, budget=budget)
    right = max_k_matching(k3, 1, budget=budget)
    prod = max_k_matching(p.graph, 1, budget=budget)
    built = boxast(p, left.witness, right.witness)
    cls = classify_matching(p.graph, built.edges, 1, budget=budget)
    return {
        "left_max_size": left.size,
        "right_max_size": right.size,
        "product_max_size": prod.size,
        "product_perfect": prod.unmatched == 0,
        "construction_from_max_size": len(built.edges),
        "construction_from_max_valid": cls.valid,
        "exhaustive": left.exhaustive and right.exhaustive and prod.exhaustive,
    }


def _measure_triple_product(budget: int) -> dict:
    s3 = build_named("star", 3)
    k3 = build_named("complete", 3)
    p3 = build_named("path", 3)
    s3k3 = product(s3, k3, "cartesian").graph
    k3p3 = product(k3, p3, "cartesian").graph
    left_grouping = check_boxast(s3k3, p3, "cartesian", 1, budget=budget)
    right_grouping = check_boxast(s3, k3p3, "cartesian", 1, budget=budget)
    return {
        "grouped_left_wellbehaved": left_grouping.verdict,
        "grouped_right_wellbehaved": right_grouping.verdict,
        "product_unmatched": left_grouping.evidence["product"]["unmatched"],
        "exhaustive": left_grouping.exhaustive and right_grouping.exhaustive,
    }


def _measure_ast_on_direct(h: Graph, budget: int) -> tuple[ProductGraph, MatchingClass, dict]:
    """The diagonals of maximum factor 1-matchings on K2 x h, against the
    product's maximum: the product, the diagonals' classification, and
    the measurements both direct scenarios report."""
    k2 = build_named("complete", 2)
    p = product(k2, h, "direct")
    m_g = max_k_matching(k2, 1, budget=budget).witness
    m_h = max_k_matching(h, 1, budget=budget).witness
    built = ast(p, m_g, m_h)
    cls = classify_matching(p.graph, built.edges, 1, budget=budget)
    prod = max_k_matching(p.graph, 1, budget=budget)
    return p, cls, {
        "construction_size": len(built.edges),
        "construction_valid": cls.valid,
        "product_max_size": prod.size,
        "construction_maximum": len(built.edges) == prod.size,
        "exhaustive": prod.exhaustive,
    }


def _measure_c6_direct(budget: int) -> dict:
    p, cls, measured = _measure_ast_on_direct(build_named("complete", 3), budget)
    measured["is_c6"] = are_isomorphic_small(p.graph, build_named("cycle", 6))
    measured["construction_maximal"] = cls.maximal
    return measured


def _measure_k2p3_direct(budget: int) -> dict:
    return _measure_ast_on_direct(build_named("path", 3), budget)[2]


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="s3k3-perfect",
            description=(
                "the star with three leaves and the triangle both have "
                "matching number 1, yet their cartesian product carries a "
                "perfect 1-matching of size 6"
            ),
            factors=("star(3)", "complete(3)"),
            star="cartesian",
            k=1,
            construction="boxast",
            expectations=(
                Expectation("left_max_size", 1, "derived"),
                Expectation("right_max_size", 1, "derived"),
                Expectation("product_max_size", 6, "derived"),
                Expectation("product_perfect", True, "claimed"),
                Expectation("construction_from_max_valid", True, "trivial"),
            ),
            measure=_measure_s3k3_perfect,
        ),
        ScenarioSpec(
            name="triple-product",
            description=(
                "a triple cartesian product whose matching number is "
                "boxast-well-behaved for one grouping of the factors and "
                "not for the other"
            ),
            factors=("cartesian(star(3),complete(3))", "path(3)"),
            star="cartesian",
            k=1,
            construction="boxast",
            expectations=(
                Expectation("grouped_left_wellbehaved", True, "claimed"),
                Expectation("grouped_right_wellbehaved", False, "claimed"),
                Expectation("product_unmatched", 0, "derived"),
            ),
            measure=_measure_triple_product,
        ),
        ScenarioSpec(
            name="c6-direct",
            description=(
                "the diagonals of the maximum factor matchings on the "
                "direct product of an edge and a triangle (a six-cycle) "
                "form a maximal but not maximum 1-matching"
            ),
            factors=("complete(2)", "complete(3)"),
            star="direct",
            k=1,
            construction="ast",
            expectations=(
                Expectation("is_c6", True, "derived"),
                Expectation("construction_size", 2, "derived"),
                Expectation("construction_valid", True, "trivial"),
                Expectation("construction_maximal", True, "claimed"),
                Expectation("construction_maximum", False, "claimed"),
                Expectation("product_max_size", 3, "derived"),
            ),
            measure=_measure_c6_direct,
        ),
        ScenarioSpec(
            name="k2p3-direct",
            description=(
                "on the direct product of an edge and a three-vertex path "
                "the diagonals of the maximum factor matchings form a "
                "maximum 1-matching"
            ),
            factors=("complete(2)", "path(3)"),
            star="direct",
            k=1,
            construction="ast",
            expectations=(
                Expectation("construction_size", 2, "derived"),
                Expectation("construction_valid", True, "trivial"),
                Expectation("construction_maximum", True, "claimed"),
                Expectation("product_max_size", 2, "derived"),
            ),
            measure=_measure_k2p3_direct,
        ),
    )
}


def run_scenario(spec: ScenarioSpec | str, budget: int = DEFAULT_NODE_BUDGET) -> RunReport:
    """Execute one scenario and compare every expectation exactly."""
    if isinstance(spec, str):
        if spec not in SCENARIOS:
            raise ScenarioError(
                f"unknown scenario {spec!r}; available: {', '.join(sorted(SCENARIOS))}"
            )
        spec = SCENARIOS[spec]
    start = time.perf_counter()
    try:
        measured = spec.measure(budget)
    except KmatchError as exc:
        raise ScenarioError(f"scenario {spec.name} failed to run: {exc}") from exc
    checks = []
    for exp in spec.expectations:
        actual = measured.get(exp.label)
        checks.append(
            {
                "label": exp.label,
                "expected": exp.expected,
                "actual": actual,
                "provenance": exp.provenance,
                "ok": actual == exp.expected,
            }
        )
    return RunReport(
        name=spec.name,
        measured=measured,
        checks=tuple(checks),
        passed=all(c["ok"] for c in checks),
        seconds=time.perf_counter() - start,
    )
