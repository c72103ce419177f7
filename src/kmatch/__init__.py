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
    predicted_size,
    predicted_size_for,
)
from .corpus import connected_graphs, connected_graphs_upto, corpus_names, load_corpus_dir
from .errors import (
    CorpusError,
    EdgeNotInFactor,
    EdgeNotInHost,
    EdgeNotInProduct,
    IncompatibleProduct,
    InconsistentInputs,
    InvalidK,
    InvalidParameter,
    InvariantViolation,
    ItemNotInProduct,
    KmatchError,
    ParseError,
    ScenarioError,
    SizeLimitExceeded,
    UnknownAnchor,
    UnsupportedKind,
)
from .graphs import (
    Graph,
    build_named,
    is_bipartite,
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
    maximum_k_matchings,
    validate_k_matching,
)
from .products import ProductGraph, classify_edge, layer, product, project
from .scenarios import SCENARIOS, run_scenario
from .weakhom import allowed_edges, is_whp, max_whp_k_matching
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
    "classify_edge",
    "classify_matching",
    "connected_graphs",
    "connected_graphs_upto",
    "corpus_names",
    "enumerate_k_matchings",
    "equivalence_suite",
    "is_bipartite",
    "is_connected",
    "is_whp",
    "layer",
    "load_corpus_dir",
    "make_graph",
    "max_k_matching",
    "max_whp_k_matching",
    "maximum_k_matchings",
    "parse_graph",
    "predicted_size",
    "predicted_size_for",
    "product",
    "project",
    "run_scenario",
    "validate_k_matching",
    "CorpusError",
    "EdgeNotInFactor",
    "EdgeNotInHost",
    "EdgeNotInProduct",
    "IncompatibleProduct",
    "InconsistentInputs",
    "InvalidK",
    "InvalidParameter",
    "InvariantViolation",
    "ItemNotInProduct",
    "ParseError",
    "ScenarioError",
    "SizeLimitExceeded",
    "UnknownAnchor",
    "UnsupportedKind",
]
