import contextlib
import json

import numpy as np
import pytest

from hyperwalk import (
    GRAPH_FORMATS,
    Level,
    apply_laplacian,
    basis_state,
    edges,
    export_graph,
    neighborhood,
)
from hyperwalk import graph

from helpers import adjacency_matrix, graph_laplacian_matrix, is_adjacent, operator_matrix, random_state


def test_adjacency_examples():
    assert is_adjacent(0b01, 0b11)
    assert not is_adjacent(0b101, 0b101)
    assert not is_adjacent(0, 0b11)


@pytest.mark.parametrize("L", [0, 2, 4, 6])
def test_adjacency_is_symmetric_and_irreflexive(L):
    dim = Level(L).dim
    for a in range(dim):
        assert not is_adjacent(a, a)
        for b in range(a + 1, dim):
            assert is_adjacent(a, b) == is_adjacent(b, a)


@pytest.mark.parametrize("L", [0, 2, 4, 6])
def test_adjacent_pairs_differ_in_exactly_one_element(L):
    lv = Level(L)
    for a in range(lv.dim):
        for b in range(lv.dim):
            if is_adjacent(a, b):
                flips = [k for k in range(L + 1) if a ^ (1 << k) == b]
                assert len(flips) == 1
    pairs = [(a, b) for a in range(lv.dim) for b in range(a + 1, lv.dim) if is_adjacent(a, b)]
    assert edges(lv) == pairs


def test_neighborhood_small_cases():
    lv = Level(1)
    assert neighborhood(0, lv) == [0b01, 0b10]
    assert neighborhood(0b11, lv) == [0b01, 0b10]
    assert neighborhood(0b10, Level(2)) == [0b000, 0b011, 0b110]


@pytest.mark.parametrize("L", range(7))
def test_every_vertex_has_degree_L_plus_one(L):
    lv = Level(L)
    for sigma in range(lv.dim):
        nbrs = neighborhood(sigma, lv)
        assert len(nbrs) == L + 1
        assert len(set(nbrs)) == L + 1
        assert nbrs == sorted(nbrs)
        assert all(is_adjacent(sigma, tau) for tau in nbrs)


@pytest.mark.parametrize("L, count", [(0, 1), (1, 4), (2, 12)])
def test_edge_counts(L, count):
    lv = Level(L)
    assert len(edges(lv)) == count == lv.dim * (L + 1) // 2


@pytest.mark.parametrize("L", [1, 4, 7])
def test_graph_laplacian_equals_walk_laplacian_on_shared_coordinates(L, rng):
    lv = Level(L)
    f = random_state(lv, rng)
    a = graph_laplacian_matrix(lv) @ f.amps
    b = apply_laplacian(f).amps
    assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("L", range(9))
def test_dense_laplacians_are_identical_integer_matrices(L):
    lv = Level(L)
    from_graph = graph_laplacian_matrix(lv)
    from_operator = operator_matrix(apply_laplacian, lv)
    assert np.abs(from_operator.imag).max() == 0.0
    as_int = np.rint(from_operator.real).astype(np.int64)
    assert np.abs(from_operator.real - as_int).max() == 0.0
    assert np.array_equal(from_graph, as_int)


def test_adjacency_matrix_row_sums_are_degrees():
    lv = Level(3)
    adj = adjacency_matrix(lv)
    assert np.array_equal(adj, adj.T)
    assert (adj.sum(axis=1) == lv.L + 1).all()


def test_flip_conjugated_through_the_identification():
    # vertex functions and walk states share coordinates, so flipping element k
    # of a basis state lands on the vertex tau ^ (1 << k)
    from hyperwalk import apply_involution

    lv = Level(2)
    for tau in range(lv.dim):
        for k in range(lv.L + 1):
            e_tau = basis_state(lv, tau)
            image = apply_involution(k, e_tau)
            expected = basis_state(lv, tau ^ (1 << k))
            assert np.array_equal(image.amps, expected.amps)


def test_dot_export_is_deterministic():
    got = export_graph(Level(1), "dot")
    assert got == (
        'graph "hypercube_L1" {\n'
        '  "{}" -- "{0}";\n'
        '  "{}" -- "{1}";\n'
        '  "{0}" -- "{0,1}";\n'
        '  "{1}" -- "{0,1}";\n'
        "}\n"
    )
    assert export_graph(Level(1), "dot") == got


def test_edge_list_export():
    assert export_graph(Level(0), "edge-list") == "{} {0}\n"
    lines = export_graph(Level(2), "edge-list").splitlines()
    assert len(lines) == 12


def test_json_export():
    doc = json.loads(export_graph(Level(1), "json"))
    assert doc == {"schema": "hyperwalk/1", "L": 1, "vertices": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]}
    assert export_graph(Level(0), "json") == '{"schema":"hyperwalk/1","L":0,"vertices":2,"edges":[[0,1]]}\n'


@pytest.mark.parametrize("fmt", GRAPH_FORMATS)
@pytest.mark.parametrize("L", [2, 12])
def test_each_export_checks_its_size_once(monkeypatch, fmt, L):
    calls = []
    check = graph._check_export_size
    monkeypatch.setattr(graph, "_check_export_size", lambda level: calls.append(level) or check(level))
    refused = Level(L).dim > graph.EXPORT_CAP
    with pytest.raises(ValueError, match="too large for export") if refused else contextlib.nullcontext():
        export_graph(Level(L), fmt)
    assert calls == [Level(L)]


def test_export_caps_and_format_validation():
    with pytest.raises(ValueError):
        export_graph(Level(12), "dot")
    with pytest.raises(ValueError, match="too large for export"):
        export_graph(Level(12), "json")
    with pytest.raises(ValueError):
        export_graph(Level(1), "gml")
