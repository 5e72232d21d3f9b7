"""Deterministic text output: fixed float formatting and stable JSON and CSV writers.

The writers produce their text as a sequence of chunks, so a caller can
stream a document without holding it whole.  Float arrays are formatted once
per distinct value (format_float stays the only source of the bytes) and the
strings are gathered and joined CHUNK values at a time.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Sequence

import numpy as np

from .subsets import element_strings, format_node

CHUNK = 1 << 16  # array values per yielded chunk


def format_float(x: float) -> str:
    """17 significant digits; scientific notation below 1e-4 in magnitude."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return format(x, ".16e")
    return format(x, ".17g")


def _float_strings(values: np.ndarray, suffix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """(text, index) with text[index] the format_float string of every value,
    followed by suffix, in order.

    Each distinct value is formatted once.  0.0 and -0.0 share an entry, which
    is exact because both format as "0".
    """
    distinct, index = np.unique(np.ravel(values), return_inverse=True)
    text = np.array([format_float(x) + suffix for x in distinct.tolist()], dtype=object)
    return text, index


def dumps_json(obj: Any) -> str:
    """Compact JSON with insertion-ordered keys and floats via format_float.

    The stdlib encoder formats floats with repr, which is shortest-round-trip
    rather than fixed-width; this writer pins the byte output instead.
    """
    return "".join(iter_json(obj))


def iter_json(obj: Any) -> Iterator[str]:
    """The text of dumps_json(obj) as a sequence of chunks.

    1-D float64 arrays and (n, 2) float64 arrays (written as [re, im] pairs)
    go through _float_strings and come out CHUNK values at a time.
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
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and (obj.ndim == 1 or obj.shape[1:] == (2,)):
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


def _float_array_json(values: np.ndarray) -> Iterator[str]:
    text, index = _float_strings(values)
    step = CHUNK * (2 if values.ndim == 2 else 1)  # the values in CHUNK rows
    yield "["
    for start in range(0, index.size, step):
        strs = text[index[start : start + step]].tolist()
        if values.ndim == 2:
            strs = map("[{},{}]".format, strs[0::2], strs[1::2])
        yield ("," if start else "") + ",".join(strs)
    yield "]"


def iter_csv(header: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """A header line, then one row per node in index order, as a sequence of chunks.

    Row sigma is the quoted format_node label of sigma followed by the
    format_float text of each column at sigma.  The columns are float arrays
    of one value per node, so their length is a power of two.

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
            parts[2 + k :: stride] = text[index[start : start + size]].tolist()
        yield "".join(parts)
