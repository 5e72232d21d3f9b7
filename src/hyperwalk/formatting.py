"""Deterministic text output: fixed float formatting and stable JSON and CSV writers.

The writers produce their text as a sequence of chunks, so a caller can
stream a document without holding it whole.  A float array is formatted once
per distinct value, a ClassTable once per Hamming distance (format_float stays
the only source of the bytes), and the strings are gathered and joined CHUNK
values at a time.  A table never becomes a node-sized array: its gathers are
per chunk, and a JSON row of the node grid (ClassTable.grid) is one of only
hi+1 distinct strings.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .spectral import ClassTable
from .subsets import element_strings, format_node

CHUNK = 1 << 16  # array values per yielded chunk


def format_float(x: float) -> str:
    """17 significant digits; scientific notation below 1e-4 in magnitude."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return format(x, ".16e")
    return format(x, ".17g")


def _entry_strings(entries: np.ndarray, suffix: str) -> np.ndarray:
    """format_float text of each value, or "[re,im]" of each (re, im) row,
    followed by suffix."""
    if entries.ndim == 1:
        text = [format_float(x) + suffix for x in entries.tolist()]
    else:
        text = [f"[{format_float(re)},{format_float(im)}]{suffix}" for re, im in entries.tolist()]
    return np.array(text, dtype=object)


def _float_strings(values: np.ndarray | ClassTable, suffix: str = "") -> tuple[np.ndarray, Callable]:
    """(text, index) with text[index(a, b)] the strings of entries a..b-1 in
    order: the format_float text of a value, or "[re,im]" of a ClassTable
    entry of shape (2,), followed by suffix.

    An array is formatted once per distinct value; 0.0 and -0.0 share one,
    which is exact because both format as "0".  A ClassTable is formatted once
    per distance, and index(a, b) looks up the distances of nodes a..b-1 on
    its grid.
    """
    if isinstance(values, ClassTable):
        _, rows, cols = values.grid()
        lo = len(cols).bit_length() - 1

        def index(a: int, b: int) -> np.ndarray:
            g = np.arange(a, min(b, len(values)))
            return rows[g >> lo] + cols[g & (len(cols) - 1)]

        return _entry_strings(values.table, suffix), index
    distinct, index = np.unique(values, return_inverse=True)
    return _entry_strings(distinct, suffix), lambda a, b: index[a:b]


def dumps_json(obj: Any) -> str:
    """Compact JSON with insertion-ordered keys and floats via format_float.

    The stdlib encoder formats floats with repr, which is shortest-round-trip
    rather than fixed-width; this writer pins the byte output instead.
    """
    return "".join(iter_json(obj))


def iter_json(obj: Any) -> Iterator[str]:
    """The text of dumps_json(obj) as a sequence of chunks.

    1-D float64 arrays and ClassTables go through _float_strings and come
    out CHUNK values at a time.
    """
    if isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        yield format_float(float(obj))
    elif isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield ("," if i else "") + json.dumps(str(key)) + ":"
            yield from iter_json(value)
        yield "}"
    elif isinstance(obj, ClassTable) or (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1):
        yield from _float_array_json(obj)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        yield "["
        for i, value in enumerate(obj):
            if i:
                yield ","
            yield from iter_json(value)
        yield "]"
    elif obj is None:
        yield "null"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_array_json(values: np.ndarray | ClassTable) -> Iterator[str]:
    text, index = _float_strings(values)
    count, step = len(values), CHUNK
    if isinstance(values, ClassTable):
        # grid row i is the joined text of row class rows[i]: join each once
        text, rows, cols = values.with_table(text).grid()
        text = np.array([",".join(text[r, cols].tolist()) for r in range(len(text))], dtype=object)
        count, step = len(rows), max(1, CHUNK // len(cols))
        index = lambda a, b: rows[a:b]
    yield "["
    for start in range(0, count, step):
        yield ("," if start else "") + ",".join(text[index(start, start + step)].tolist())
    yield "]"


def iter_csv(header: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """A header line, then one row per node in index order, as a sequence of chunks.

    Row sigma is the quoted format_node label of sigma followed by the
    format_float text of each column at sigma.  The columns are float arrays
    of one value per node, or ClassTables, so their length is a power of two.

    A chunk is one join over a reused parts list: per row the label's opening
    and low-bit elements (the same in every chunk), the chunk's high-bit
    elements with the closing of the label, then the cells, each of which
    carries its separator from its column's distinct strings.
    """
    yield header + "\n"
    dim = len(columns[0])
    size = min(CHUNK, dim)
    separators = [","] * (len(columns) - 1) + ["\n"]
    strings = [_float_strings(column, sep) for column, sep in zip(columns, separators)]
    stride = len(columns) + 2
    parts = [""] * (size * stride)
    parts[0::stride] = ['"{' + low for low in element_strings(size.bit_length() - 1)]
    for start in range(0, dim, size):
        high = format_node(start)[1:-1]  # start has no bits below the chunk's
        parts[1::stride] = [("," + high if high else "") + '}",'] * size
        parts[1] = high + '}",'  # row 0 of the chunk has no low-bit elements
        for k, (text, index) in enumerate(strings):
            parts[2 + k :: stride] = text[index(start, start + size)].tolist()
        yield "".join(parts)
