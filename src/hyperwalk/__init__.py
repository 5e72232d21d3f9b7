"""Continuous-time quantum walk on the hypercube.

State vectors are indexed by subset bitmasks of {0, ..., L}; the walk
generator is the sum over elements of (identity minus bit-flip), which
diagonalizes over a signed Walsh eigenbasis; its evolution is exactly the
tensor power of one 2×2 factor per element.  One engine applies that factor
(in closed form from a node); the period average is the exact per-distance
value from a node and the quadrature from any other state.  The
literal-definition oracles they are checked against live in the test suite.
"""

from .evolution import (
    EvolutionEngine,
    evolve,
)
from .graph import (
    GRAPH_FORMATS,
    adjacency_matrix,
    edge_count,
    edges,
    export_graph,
    graph_json_dict,
    graph_laplacian_matrix,
    is_adjacent,
    neighborhood,
)
from .measure import (
    TIME_AVERAGE_METHODS,
    Distribution,
    SymmetryReport,
    TimeAverageDistribution,
    closed_form_distribution,
    closed_form_pt,
    distribution_at,
    distribution_csv,
    distribution_json_dict,
    is_symmetric,
    pst_check,
    quadrature_point_count,
    time_average,
    vacuum_average_value,
)
from .operators import (
    DENSE_CAP,
    StateVector,
    apply_hat_involution,
    apply_involution,
    apply_involution_product,
    apply_laplacian,
    basis_state,
    inner_product,
    materialize_matrix,
    vacuum_state,
)
from .spectral import (
    Spectrum,
    SpectrumEntry,
    eigenvalue_of,
    eigenvalues_by_index,
    from_eigenbasis,
    spectrum,
    to_eigenbasis,
)
from .subsets import (
    DEFAULT_MAX_LEVEL,
    Level,
    cardinality,
    complement,
    elements,
    format_node,
    max_level,
    parse_node,
    symmetric_difference,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "DENSE_CAP",
    "GRAPH_FORMATS",
    "TIME_AVERAGE_METHODS",
    "Distribution",
    "EvolutionEngine",
    "Level",
    "Spectrum",
    "SpectrumEntry",
    "StateVector",
    "SymmetryReport",
    "TimeAverageDistribution",
    "adjacency_matrix",
    "apply_hat_involution",
    "apply_involution",
    "apply_involution_product",
    "apply_laplacian",
    "basis_state",
    "cardinality",
    "closed_form_distribution",
    "closed_form_pt",
    "complement",
    "distribution_at",
    "distribution_csv",
    "distribution_json_dict",
    "edge_count",
    "edges",
    "eigenvalue_of",
    "eigenvalues_by_index",
    "elements",
    "evolve",
    "export_graph",
    "format_node",
    "from_eigenbasis",
    "graph_json_dict",
    "graph_laplacian_matrix",
    "inner_product",
    "is_adjacent",
    "is_symmetric",
    "materialize_matrix",
    "max_level",
    "neighborhood",
    "parse_node",
    "pst_check",
    "quadrature_point_count",
    "spectrum",
    "symmetric_difference",
    "time_average",
    "to_eigenbasis",
    "vacuum_average_value",
    "vacuum_state",
]
