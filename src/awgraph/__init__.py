"""Anti-van der Waerden numbers of connected graphs.

aw(G, k) is the least r such that every exact r-coloring of G contains a
rainbow k-term arithmetic progression under the shortest-path metric, with
aw = n + 1 when no r <= n forces one.  The package computes aw by exhaustive
symmetry-reduced backtracking, enumerates the extremal rainbow-free
colorings, builds explicit extremal colorings of path products, evaluates
the closed form for aw(P_m x P_n, 3), and emits checkable certificates.
"""

from .aps import (
    ApTable,
    ArithmeticProgression,
    brute_force_k_aps,
    enumerate_k_aps,
    find_rainbow_ap,
    scan_3aps,
)
from .certify import (
    VERDICT_INCONSISTENT,
    VERDICT_MALFORMED,
    VERDICT_WITNESS_INVALID,
    VERDICT_WITNESS_VALID,
    CertificateFormatError,
    VerificationReport,
    check_coloring,
    emit_certificate,
    parse_certificate,
    verify_certificate,
)
from .coloring import (
    Coloring,
    ColoringError,
    ColoringFormatError,
    coloring_to_text,
    parse_coloring,
)
from .constructions import (
    BLUE,
    GREEN,
    GRID_COLORINGS,
    RED,
    GridTableRow,
    ProductBoundReport,
    closed_form_aw_grid,
    construct_corner_coloring,
    construct_two_red_coloring,
    grid_formula_table,
    verify_product_bound,
)
from .errors import AwgraphError, BudgetExceededError
from .graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    GraphFormatError,
    GridCoordinates,
    MalformedEdgeError,
    MalformedHeaderError,
    SelfLoopError,
    VertexRangeError,
    all_pairs_distances,
    build_complete,
    build_cycle,
    build_grid,
    build_path,
    build_star,
    cartesian_product,
    distance_rings,
    graph_to_text,
    parse_graph,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    AwResult,
    compute_aw,
    enumerate_rainbow_free_colorings,
    exists_rainbow_free_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "ApTable",
    "ArithmeticProgression",
    "AwResult",
    "AwgraphError",
    "BLUE",
    "BudgetExceededError",
    "CertificateFormatError",
    "Coloring",
    "ColoringError",
    "ColoringFormatError",
    "DEFAULT_NODE_BUDGET",
    "DisconnectedGraphError",
    "DuplicateEdgeError",
    "GREEN",
    "GRID_COLORINGS",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "GridCoordinates",
    "GridTableRow",
    "MalformedEdgeError",
    "MalformedHeaderError",
    "ProductBoundReport",
    "RED",
    "SelfLoopError",
    "VERDICT_INCONSISTENT",
    "VERDICT_MALFORMED",
    "VERDICT_WITNESS_INVALID",
    "VERDICT_WITNESS_VALID",
    "VerificationReport",
    "VertexRangeError",
    "all_pairs_distances",
    "brute_force_k_aps",
    "build_complete",
    "build_cycle",
    "build_grid",
    "build_path",
    "build_star",
    "cartesian_product",
    "check_coloring",
    "closed_form_aw_grid",
    "coloring_to_text",
    "compute_aw",
    "construct_corner_coloring",
    "construct_two_red_coloring",
    "distance_rings",
    "emit_certificate",
    "enumerate_k_aps",
    "enumerate_rainbow_free_colorings",
    "exists_rainbow_free_coloring",
    "find_rainbow_ap",
    "graph_to_text",
    "grid_formula_table",
    "parse_certificate",
    "parse_coloring",
    "parse_graph",
    "scan_3aps",
    "verify_certificate",
    "verify_product_bound",
]
