"""Hypercube view of the node set: edges and exports.

Nodes are adjacent when their masks differ in exactly one bit, which makes
the node set the (L+1)-dimensional hypercube graph.  The graph is never
stored: edges flip one bit of a node at a time.
"""

from __future__ import annotations

from .formatting import iter_document
from .subsets import Level, format_node

GRAPH_FORMATS = ("dot", "json", "edge-list")
EXPORT_CAP = 4096


def edges(level: Level) -> list[tuple[int, int]]:
    """Every edge once, smaller index first, sorted lexicographically."""
    out = []
    for sigma in range(level.dim):
        for k in range(level.L + 1):
            tau = sigma ^ (1 << k)
            if sigma < tau:
                out.append((sigma, tau))
    return out


def _check_export_size(level: Level) -> None:
    """Refuse an export above EXPORT_CAP vertices, before any edge is built."""
    if level.dim > EXPORT_CAP:
        raise ValueError(
            f"graph with {level.dim} vertices too large for export (cap {EXPORT_CAP})"
        )


def export_graph(level: Level, fmt: str) -> str:
    """Text export of the graph; deterministic vertex and edge order."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}; expected one of {GRAPH_FORMATS}")
    _check_export_size(level)
    if fmt == "json":
        pairs = [[a, b] for a, b in edges(level)]
        return "".join(iter_document(level, {"vertices": level.dim, "edges": pairs}))
    if fmt == "dot":
        lines = [f'graph "hypercube_L{level.L}" {{']
        for a, b in edges(level):
            lines.append(f'  "{format_node(a)}" -- "{format_node(b)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    return "".join(f"{format_node(a)} {format_node(b)}\n" for a, b in edges(level))
