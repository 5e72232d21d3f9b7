"""Deterministic text output: fixed float formatting, stable JSON and CSV writers, graph exports.

The writers produce their text as a sequence of chunks, so a caller can
stream a document without holding it whole.  JSON takes Python values and
ClassTables; CSV takes ClassTables alone, each formatted once per Hamming
distance (format_float stays the only source of the bytes).  A table is
written in plain Python and never becomes a node-sized array: on the node
grid (ClassTable.grid) a JSON row is one of only hi+1 distinct strings,
yielded as it is, and a CSV chunk of as many rows as fit CHUNK_BYTES joins
cells from hi+1 lists.  What page-faults is a piece's bytes, and small pieces
page-fault far less.  No writer uses numpy.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Sequence

from .spectral import ClassTable
from .subsets import Level, edges, element_strings, format_node

GRAPH_FORMATS = ("dot", "json", "edge-list")
EXPORT_CAP = 4096  # most vertices export_graph writes
SCHEMA = "hyperwalk/1"  # the "schema" field of every JSON document iter_document writes

# Bytes per CSV chunk: its rows are the most, a power of two, that fit at the
# widest row.  Above glibc's 128 KiB mmap threshold a chunk is mapped and
# faulted afresh: 4096 rows (200 KB at 1 column, 450 KB at 3) took 36.6k and
# 74.7k minor faults at L = 22, against 2.5k and 12.0k at 2**11 and 2**10 rows.
CHUNK_BYTES = 192 << 10


def format_float(x: float) -> str:
    """17 significant digits; scientific notation below 1e-4 in magnitude."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return format(x, ".16e")
    return format(x, ".17g")


def dumps_json(obj: Any) -> str:
    """Compact JSON with insertion-ordered keys and floats via format_float.

    The stdlib encoder formats floats with repr, which is shortest-round-trip
    rather than fixed-width; this writer pins the byte output instead.
    """
    return "".join(iter_json(obj))


def iter_json(obj: Any) -> Iterator[str]:
    """The text of dumps_json(obj) as chunks; a ClassTable one node-grid row each."""
    if obj is None or isinstance(obj, (str, bool)):
        yield json.dumps(obj)
    elif isinstance(obj, int):
        yield str(int(obj))
    elif isinstance(obj, float):
        yield format_float(float(obj))
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + json.dumps(str(key)) + ":"
            yield from iter_json(value)
        yield "}"
    elif isinstance(obj, ClassTable):
        yield from _table_json(obj)
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ","
            yield from iter_json(value)
        yield "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def iter_document(level: Level, fields: dict) -> Iterator[str]:
    """A JSON document of the command line, as chunks: its schema and level,
    then fields, then the final newline."""
    yield from iter_json({"schema": SCHEMA, "L": level.L, **fields})
    yield "\n"


def export_graph(level: Level, fmt: str) -> str:
    """Text export of the graph; deterministic vertex and edge order.  A graph
    above EXPORT_CAP vertices is refused before any edge is built."""
    if fmt not in GRAPH_FORMATS:
        raise ValueError(f"unknown graph format {fmt!r:.60}; expected one of {GRAPH_FORMATS}")
    if level.dim > EXPORT_CAP:
        raise ValueError(f"graph with {level.dim} vertices too large for export (cap {EXPORT_CAP})")
    if fmt == "json":
        return "".join(iter_document(level, {"vertices": level.dim, "edges": edges(level)}))
    if fmt == "dot":
        lines = [f'graph "hypercube_L{level.L}" {{']
        for a, b in edges(level):
            lines.append(f'  "{format_node(a)}" -- "{format_node(b)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    return "".join(f"{format_node(a)} {format_node(b)}\n" for a, b in edges(level))


def _table_json(table: ClassTable) -> Iterator[str]:
    # grid row i is the joined text of row class rows[i]: join each once and
    # yield that one string for every row of its class.  The classes go
    # before the first row, so the rows stream with only their text held
    classes, rows = table.with_table(tuple(map(dumps_json, table.table))).grid()
    text = ["," + ",".join(row_class) for row_class in classes]
    del classes
    yield "[" + text[rows[0]][1:]
    yield from map(text.__getitem__, rows[1:])
    yield "]"


def iter_csv(header: str, columns: Sequence[ClassTable]) -> Iterator[str]:
    """A header line, then one row per node in index order, as a sequence of chunks.

    Row sigma is the quoted format_node label of sigma followed by the
    format_float text of each column at sigma.  The columns are ClassTables
    of one level and one start node.

    A chunk is one join over a reused parts list: per row the label's opening
    and low-bit elements (the same in every chunk), the chunk's high-bit
    elements with the closing of the label, then the row's cells, each
    followed by its separator.  The cells of a row depend on its distance
    alone, so they are one string per distance, and a chunk's are the list
    of its row class on the grid split at the chunk size.
    """
    yield header + "\n"
    dim = columns[0].level.dim
    separators = [","] * (len(columns) - 1) + ["\n"]
    text = zip(*[[dumps_json(x) + sep for x in c.table] for c, sep in zip(columns, separators)])
    cells = tuple(map("".join, text))
    # the widest row: the full node's quoted label, its comma, the longest cells
    width = len(format_node(dim - 1)) + 3 + max(map(len, cells))
    lo = min(dim, CHUNK_BYTES // width).bit_length() - 1
    size = 1 << lo
    classes, rows = columns[0].with_table(cells).grid(lo)
    parts = [""] * (size * 3)
    parts[0::3] = ['"{' + low for low in element_strings(lo)]
    for start in range(0, dim, size):
        high = format_node(start)[1:-1]  # start has no bits below the chunk's
        parts[1::3] = [("," + high if high else "") + '}",'] * size
        parts[1] = high + '}",'  # row 0 of the chunk has no low-bit elements
        parts[2::3] = classes[rows[start >> lo]]
        yield "".join(parts)
