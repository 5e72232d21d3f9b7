"""The chunked writers against the per-element reference writers, byte for byte."""

import numpy as np
import pytest

from hyperwalk import Level, formatting
from hyperwalk.formatting import dumps_json, iter_csv, iter_json
from hyperwalk.spectral import ClassTable

from helpers import reference_csv, reference_dumps_json

CHUNK = 16  # small chunks, so that short arrays cross chunk boundaries
REAL_CHUNK = formatting.CHUNK


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(formatting, "CHUNK", CHUNK)


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
ARRAYS["all distinct, several chunks"] = _all_distinct(2 * CHUNK + 6)
ARRAYS["repeating, several chunks"] = _repeating(3 * CHUNK + 2)


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


def _pad(values: np.ndarray, dim: int) -> np.ndarray:
    return np.resize(values, dim) if values.size else np.zeros(dim)


@pytest.mark.parametrize("dim", [2, 8, 4 * CHUNK])
def test_csv_matches_reference(dim):
    columns = [_pad(ARRAYS[name], dim) for name in EDGE_ARRAYS]
    columns.append(_all_distinct(dim))
    columns.append(_repeating(dim))
    header = "node," + ",".join(f"c{i}" for i in range(len(columns)))
    assert "".join(iter_csv(header, columns)) == reference_csv(header, columns)


def test_writers_stream_in_chunks():
    # L = 5: 64 nodes on an 8 x 8 grid.  JSON: "[" with grid row 0, then one
    # chunk per later grid row, each row the one string of its row class,
    # then "]".  CSV: the header, then CHUNK rows per chunk.
    table = ClassTable(Level(5), 0b100101, tuple(_all_distinct(7).tolist()))
    _, rows, cols = table.grid()
    chunks = list(iter_json(table))
    assert len(chunks) == len(rows) + 1 and chunks[-1] == "]"
    assert chunks[0].startswith("[") and chunks[0].count(",") == len(cols) - 1
    assert all(chunk.startswith(",") and chunk.count(",") == len(cols) for chunk in chunks[1:-1])
    first = {}
    for r, chunk in zip(rows[1:], chunks[1:-1]):
        assert first.setdefault(r, chunk) is chunk
    assert "".join(chunks) == reference_dumps_json(table.materialize().tolist())
    for column in (_repeating(4 * CHUNK), table):
        assert len(list(iter_csv("node,p", [column]))) == 1 + len(column) // CHUNK


@pytest.mark.parametrize("ncols", [1, 3])
def test_csv_matches_reference_at_the_real_chunk(monkeypatch, ncols):
    # two chunks of the real size, the second with high-bit elements
    monkeypatch.setattr(formatting, "CHUNK", REAL_CHUNK)
    dim = 2 * REAL_CHUNK
    columns = [_repeating(dim), _all_distinct(dim), -_repeating(dim)][:ncols]
    header = "node," + ",".join(f"c{i}" for i in range(ncols))
    chunks = list(iter_csv(header, columns))
    assert len(chunks) == 3
    assert "".join(chunks) == reference_csv(header, columns)
