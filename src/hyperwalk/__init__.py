"""Continuous-time quantum walk on the hypercube.

State vectors are indexed by subset bitmasks of {0, ..., L}; the walk
generator is the sum over elements of (identity minus bit-flip), which
diagonalizes over a signed Walsh eigenbasis; its evolution is exactly the
tensor power of one 2×2 factor per element.  One engine applies that factor
(in closed form from a node); the period average is the exact per-distance
value from a node and the quadrature from any other state.  The operator
functions act on state vectors directly and never build a matrix; the
literal-definition oracles everything is checked against, dense operator,
graph and evolution matrices among them, live in the test suite.

Every public name is imported from its module on first access (PEP 562).
numpy is imported the same way, in _numpy.py alone, when a function that
builds or takes a node-sized array first reads one of its names; so the
command line, which computes and writes per-distance tables, never loads it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "evolution": "EvolutionEngine evolve",
    "graph": "GRAPH_FORMATS edges export_graph neighborhood",
    "measure": "TIME_AVERAGE_METHODS Distribution SymmetryReport TimeAverageDistribution "
    "closed_form_distribution closed_form_pt distribution_at distribution_csv is_symmetric "
    "pst_check quadrature_point_count time_average vacuum_average_value",
    "operators": "StateVector apply_hat_involution apply_involution apply_involution_product "
    "apply_laplacian basis_state vacuum_state",
    "spectral": "Spectrum SpectrumEntry from_eigenbasis spectrum to_eigenbasis",
    "subsets": "DEFAULT_MAX_LEVEL Level complement elements format_node max_level parse_node",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# constants, then classes, then functions, each alphabetical
__all__ = sorted(_MODULE_OF, key=lambda name: (not name.isupper(), not name[0].isupper(), name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
