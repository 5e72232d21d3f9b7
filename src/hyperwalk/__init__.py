"""Continuous-time quantum walk on the hypercube.

State vectors are indexed by subset bitmasks of {0, ..., L}, the hypercube's
nodes; the walk generator is the sum over elements of (identity minus bit-flip),
which diagonalizes over a signed Walsh eigenbasis; its evolution is exactly the
tensor power of one 2×2 factor per element, all of it (cos t, sin t) from
spectral.bit_factor.  One engine applies that factor (as a per-distance table
from a node); the period average is the exact per-distance value from a node and
the quadrature from any other state.  The operator functions act on state
vectors directly and never build a matrix; the literal-definition oracles
everything is checked against, dense operator, graph and evolution matrices and
the exact vacuum average among them, live in the test suite.

Importing the package imports every module but the command line's, and no
numpy: _numpy.py alone imports it, when a function that builds or takes a
node-sized array first reads one of its names; so the command line, which
computes and writes per-distance tables, never loads it.
"""

from .evolution import EvolutionEngine, evolve
from .formatting import GRAPH_FORMATS, export_graph
from .measure import (Distribution, SymmetryReport, TimeAverageDistribution, closed_form_distribution, closed_form_pt,
                      distribution_at, distribution_csv, is_symmetric, pst_check, time_average)
from .operators import (StateVector, apply_hat_involution, apply_involution, apply_involution_product,
                        apply_laplacian, basis_state, vacuum_state)
from .spectral import Spectrum, SpectrumEntry, from_eigenbasis, spectrum, to_eigenbasis
from .subsets import Level, edges, elements, format_node, parse_node

__version__ = "0.1.0"

# constants, then classes, then functions, each alphabetical
__all__ = [
    "GRAPH_FORMATS", "Distribution", "EvolutionEngine", "Level", "Spectrum", "SpectrumEntry", "StateVector",
    "SymmetryReport", "TimeAverageDistribution", "apply_hat_involution", "apply_involution",
    "apply_involution_product", "apply_laplacian", "basis_state", "closed_form_distribution", "closed_form_pt",
    "distribution_at", "distribution_csv", "edges", "elements", "evolve", "export_graph", "format_node",
    "from_eigenbasis", "is_symmetric", "parse_node", "pst_check", "spectrum", "time_average", "to_eigenbasis",
    "vacuum_state",
]
