"""k-matchings in graph products.

A k-matching is an edge set whose vertices each touch either zero or
exactly k of its edges. This package builds the four standard graph
products, three ways of assembling product k-matchings out of factor
matchings, exact branch-and-bound oracles, and deciders for when a
construction attains the product's maximum.
"""

from .constructions import (
    Classification,
    ConstructionResult,
    ast,
    boxast,
    circledast,
)
from .corpus import connected_graphs, connected_graphs_upto, corpus_names, load_corpus_dir
from .errors import (
    CorpusError,
    EdgeNotInFactor,
    EdgeNotInHost,
    IncompatibleProduct,
    InvalidK,
    InvalidParameter,
    InvariantViolation,
    KmatchError,
    ParseError,
    ScenarioError,
    SizeLimitExceeded,
    UnsupportedKind,
)
from .graphs import (
    Graph,
    build_named,
    is_connected,
    make_graph,
    parse_graph,
)
from .matchings import (
    MatchingClass,
    OracleReport,
    classify_matching,
    enumerate_k_matchings,
    max_k_matching,
    validate_k_matching,
)
from .products import ProductGraph, product
from .scenarios import SCENARIOS, run_scenario
from .weakhom import allowed_edges
from .wellbehaved import (
    EquivalenceReport,
    WellBehavedReport,
    check_ast,
    check_boxast,
    check_circledast,
    equivalence_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "ProductGraph",
    "OracleReport",
    "MatchingClass",
    "Classification",
    "ConstructionResult",
    "WellBehavedReport",
    "EquivalenceReport",
    "SCENARIOS",
    "KmatchError",
    "__version__",
    "allowed_edges",
    "ast",
    "boxast",
    "build_named",
    "check_ast",
    "check_boxast",
    "check_circledast",
    "circledast",
    "classify_matching",
    "connected_graphs",
    "connected_graphs_upto",
    "corpus_names",
    "enumerate_k_matchings",
    "equivalence_suite",
    "is_connected",
    "load_corpus_dir",
    "make_graph",
    "max_k_matching",
    "parse_graph",
    "product",
    "run_scenario",
    "validate_k_matching",
    "CorpusError",
    "EdgeNotInFactor",
    "EdgeNotInHost",
    "IncompatibleProduct",
    "InvalidK",
    "InvalidParameter",
    "InvariantViolation",
    "ParseError",
    "ScenarioError",
    "SizeLimitExceeded",
    "UnsupportedKind",
]
