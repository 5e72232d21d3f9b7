"""The chunked writers against the per-element reference writers, byte for byte."""

import itertools
import random

import numpy as np
import pytest

from hyperwalk import Level, formatting
from hyperwalk.formatting import dumps_json, format_float, iter_csv, iter_json
from hyperwalk.spectral import ClassTable
from hyperwalk.subsets import format_node

from helpers import assert_same_text, reference_csv, reference_dumps_json

CHUNK_BYTES = 1 << 10  # small chunks, so that short tables cross chunk boundaries
REAL_CHUNK_BYTES = formatting.CHUNK_BYTES


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(formatting, "CHUNK_BYTES", CHUNK_BYTES)


_BELOW = np.nextafter(1e-4, 0.0)
_ABOVE = np.nextafter(1e-4, 1.0)

EDGE_ARRAYS = {
    "empty": [],
    "signed zeros": [0.0, -0.0, -0.0, 0.0, 1.0, -0.0],
    "subnormals": [5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072009e-308, 0.0],
    "around 1e-4": [_BELOW, 1e-4, _ABOVE, -_BELOW, -1e-4, -_ABOVE, 9.99e-5, 1.0001e-4],
    "negatives": [-1.0, -0.5, -1e-17, -123456.789, -0.49999999999999994, -1e300],
    "non-finite": [np.inf, -np.inf, np.nan, 1.0],
}


def _all_distinct(n: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n)


def _repeating(n: int) -> np.ndarray:
    """Few distinct values, each recurring across chunk boundaries."""
    return np.resize([0.1, -0.0, 2.5e-7, 0.1, 1.0 / 3.0, 0.0, -7.0], n)


ARRAYS = {name: np.array(values, dtype=np.float64) for name, values in EDGE_ARRAYS.items()}
ARRAYS["all distinct, several chunks"] = _all_distinct(38)
ARRAYS["repeating, several chunks"] = _repeating(50)


@pytest.mark.parametrize("name", list(ARRAYS))
def test_float_array_json_matches_reference(name):
    values = ARRAYS[name].tolist()
    assert dumps_json(values) == reference_dumps_json(values)
    pairs = ARRAYS[name][: len(values) // 2 * 2].reshape(-1, 2).tolist()
    assert dumps_json(pairs) == reference_dumps_json(pairs)
    doc = {"a": values, "n": len(values), "pairs": pairs, "flag": True, "x": -0.0, "none": None}
    assert "".join(iter_json(doc)) == reference_dumps_json(doc)


def test_other_values_take_the_element_path():
    doc = {
        "ints": np.arange(5).tolist(),
        "grid": np.eye(3).tolist(),
        "wide": np.ones((2, 3)).tolist(),
        "single": np.array([0.1, 1e-5], dtype=np.float32).tolist(),
        "list": [0.5, [1e-5]],
    }
    assert dumps_json(doc) == reference_dumps_json(doc)
    # the writer takes Python values and ClassTables: numpy arrays are refused
    for bad in (object(), np.array(1.0), np.zeros(2)):
        with pytest.raises(TypeError):
            dumps_json({"bad": bad})


_STRINGS = ["", "a", '"', "\\", "\n\t\r\b\f", "\0\x1f\x7f", "é∅", "\ud800", "</script>", "'", "{0,2}"]
_FLOATS = [0.0, -0.0, 5e-324, 1e-4, -9.99e-5, 0.1, 1 / 3, -1e300, float("inf"), float("nan")]
_INTS = [0, -1, 7, 2**53 + 1, -(10**40)]


def _seeded_value(rng, depth):
    """A JSON value: a literal, or below depth 4 a list, tuple or dict of values."""
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        return rng.choice(_STRINGS) + rng.choice(_STRINGS)
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice(_INTS)
    if kind == 3:
        return rng.choice(_FLOATS)
    items = [_seeded_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {rng.choice(_STRINGS) + str(i): item for i, item in enumerate(items)}


def test_seeded_values_match_the_reference_writer():
    # the literals (strings with escapes, True, False, None), ints, floats and
    # nested lists, tuples and dicts each print the per-element writer's text
    rng = random.Random(47)
    for _ in range(2000):
        value = _seeded_value(rng, 0)
        assert dumps_json(value) == reference_dumps_json(value), value
    for literal in (True, False, None, *_STRINGS):
        assert dumps_json(literal) == reference_dumps_json(literal), literal


def _table(values, level: Level, sigma: int) -> ClassTable:
    """values as the entries of distances 0..L+1, repeated or cut to length."""
    return ClassTable(level, sigma, tuple(np.resize(np.array(values, dtype=np.float64), level.L + 2).tolist()))


def _tables(L: int, sigma: int) -> dict[str, ClassTable]:
    level = Level(L)
    tables = {name: _table(values, level, sigma) for name, values in EDGE_ARRAYS.items() if len(values)}
    tables["all distinct"] = _table(_all_distinct(L + 2), level, sigma)
    tables["repeating"] = _table(_repeating(L + 2), level, sigma)
    return tables


def _csv_header(columns: list[ClassTable]) -> str:
    return "node," + ",".join(f"c{i}" for i in range(len(columns)))


def _csv_matches_reference(columns: list[ClassTable]) -> list[str]:
    header = _csv_header(columns)
    chunks = list(iter_csv(header, columns))
    assert_same_text("".join(chunks), reference_csv(header, [column.materialize() for column in columns]))
    _chunk_rows(chunks[1:], columns)
    return chunks


def _chunk_rows(chunks: list[str], columns: list[ClassTable]) -> int:
    """The rows per chunk of iter_csv's chunks after the header, checked
    against the byte budget: every chunk is at most CHUNK_BYTES long, and
    every one but the last holds the same power of two of rows, the largest,
    at most the node count, that fits at the widest row the table can print."""
    dim = columns[0].level.dim
    budget = formatting.CHUNK_BYTES
    rows = [chunk.count("\n") for chunk in chunks]
    size = rows[0]
    assert size & (size - 1) == 0 and set(rows[:-1]) <= {size} and 0 < rows[-1] <= size, rows
    assert all(len(chunk) <= budget for chunk in chunks), max(map(len, chunks))
    cells = max(sum(len(format_float(c.table[d])) + 1 for c in columns) for d in range(len(columns[0].table)))
    width = len(format_node(dim - 1)) + 3 + cells
    assert size * width <= budget and (size == dim or 2 * size * width > budget), (size, width)
    return size


# dim 2, 8, one chunk; dim 128, eight chunks; L = 6 holds every edge value
@pytest.mark.parametrize("L, sigma", [(0, 1), (2, 0b101), (6, 0), (6, 0b1011001)])
def test_csv_matches_reference(L, sigma):
    tables = _tables(L, sigma)
    for table in tables.values():
        _csv_matches_reference([table])
    _csv_matches_reference(list(tables.values()))


def test_writers_stream_in_chunks():
    # L = 5: 64 nodes on an 8 x 8 grid.  JSON: "[" with grid row 0, then one
    # chunk per later grid row, each row the one string of its row class,
    # then "]".  CSV: the header, then as many rows per chunk as fit CHUNK_BYTES.
    table = ClassTable(Level(5), 0b100101, tuple(_all_distinct(7).tolist()))
    classes, rows = table.grid()
    width = len(classes[0])
    chunks = list(iter_json(table))
    assert len(chunks) == len(rows) + 1 and chunks[-1] == "]"
    assert chunks[0].startswith("[") and chunks[0].count(",") == width - 1
    assert all(chunk.startswith(",") and chunk.count(",") == width for chunk in chunks[1:-1])
    first = {}
    for r, chunk in zip(rows[1:], chunks[1:-1]):
        assert first.setdefault(r, chunk) is chunk
    assert "".join(chunks) == reference_dumps_json(table.materialize().tolist())
    chunks = list(iter_csv("node,p", [table]))
    size = _chunk_rows(chunks[1:], [table])
    assert 1 < size < table.level.dim and len(chunks) == 1 + table.level.dim // size


def _real_columns(L: int, ncols: int) -> list[ClassTable]:
    tables = _tables(L, 0b1_0110_0100_1101 % (2 << L))  # a nonzero start at every L here
    return [tables["repeating"], tables["all distinct"], tables["around 1e-4"]][:ncols]


@pytest.mark.parametrize("ncols", [1, 3])
@pytest.mark.parametrize("L", [5, 12, 16])
def test_csv_matches_reference_at_the_real_chunk(monkeypatch, L, ncols):
    # L = 5: one chunk of every node; L = 12 and 16: chunks of the real
    # budget, 2**11 rows at one column and 2**10 at three, the later ones
    # with high-bit elements
    monkeypatch.setattr(formatting, "CHUNK_BYTES", REAL_CHUNK_BYTES)
    chunks = _csv_matches_reference(_real_columns(L, ncols))
    dim = 2 << L
    assert len(chunks) == 1 + dim // min(dim, {1: 1 << 11, 3: 1 << 10}[ncols])


@pytest.mark.parametrize("ncols, size", [(1, 1 << 11), (3, 1 << 10)])
def test_the_budget_holds_at_the_level_cap(monkeypatch, ncols, size):
    # L = 24, the widest labels: the header and the first chunk alone are built
    monkeypatch.setattr(formatting, "CHUNK_BYTES", REAL_CHUNK_BYTES)
    columns = _real_columns(24, ncols)
    header = _csv_header(columns)
    chunks = list(itertools.islice(iter_csv(header, columns), 2))
    first_rows = [np.array([c.table[(g ^ c.sigma).bit_count()] for g in range(size)]) for c in columns]
    assert_same_text("".join(chunks), reference_csv(header, first_rows))
    assert _chunk_rows(chunks[1:], columns) == size
