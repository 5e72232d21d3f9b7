"""Pins the benchmark's oracle to a dense matrix exponential at small L.

Run with: python3 -m pytest perfbench/test_oracle.py

The generator sum_k (I - X_k) is built here from bit flips, and exp(itH) is
taken through its eigendecomposition; nothing is imported from hyperwalk.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

import inputs
import oracle
from workloads import csv_labels

TIMES = (0.0, 0.3, math.pi / 4, 1.0, 2.9, 7.5)


def generator_matrix(L: int) -> np.ndarray:
    m = L + 1
    dim = 1 << m
    h = m * np.eye(dim)
    for k in range(m):
        for g in range(dim):
            h[g, g ^ (1 << k)] -= 1.0
    return h


def dense_unitary(L: int, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(generator_matrix(L))
    return (v * np.exp(1j * t * w)) @ v.T


@pytest.mark.parametrize("L", range(5))
def test_basis_probs_match_dense_expm(L):
    for sigma in {0, 1, (1 << (L + 1)) - 1, 0b101 & ((1 << (L + 1)) - 1)}:
        for t in TIMES:
            expected = np.abs(dense_unitary(L, t)[:, sigma]) ** 2
            assert np.max(np.abs(oracle.basis_probs(L, sigma, t) - expected)) <= 1e-13


@pytest.mark.parametrize("L", range(5))
def test_period_average_matches_dense_expm(L):
    # probabilities are trigonometric polynomials of frequency at most 2(L+1),
    # so an equispaced average over more than L+1 points of [0, pi) is exact
    points = 2 * L + 5
    us = [dense_unitary(L, j * math.pi / points) for j in range(points)]
    for sigma in (0, (1 << (L + 1)) - 1, 1):
        expected = sum(np.abs(u[:, sigma]) ** 2 for u in us) / points
        assert np.max(np.abs(oracle.period_average_probs(L, sigma) - expected)) <= 1e-13


def test_period_average_table_is_exact():
    assert oracle.period_average_table(0) == [Fraction(1, 2), Fraction(1, 2)]
    for L in range(12):
        table = oracle.period_average_table(L)
        assert sum(math.comb(L + 1, d) * p for d, p in enumerate(table)) == 1
        assert table == table[::-1]


@pytest.mark.parametrize("L", range(5))
def test_product_sum_probs_match_dense_expm(L):
    rng = np.random.default_rng(L)
    states = inputs.product_states(rng, L)
    psi = inputs.superposition(states)
    for t in TIMES:
        expected = np.abs(dense_unitary(L, t) @ psi) ** 2
        assert np.max(np.abs(oracle.product_sum_probs(states, t) - expected)) <= 1e-13


def test_kron_all_puts_factor_k_on_bit_k():
    L = 3
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for g in range(1 << (L + 1)):
        factors = np.array([e1 if g >> k & 1 else e0 for k in range(L + 1)])
        assert np.flatnonzero(oracle.kron_all(factors)).tolist() == [g]


@pytest.mark.parametrize("t", [3.5, 1e6, 1e9, 1e12])
def test_large_time_factor_matches_exact_reduction(t):
    # the large-t verdicts rest on libm's cos/sin; reduce t modulo pi in
    # 60-digit decimal arithmetic and compare the per-distance table
    getcontext().prec = 60
    pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
    exact = Decimal(t)
    r = float(exact - pi * (exact / pi).to_integral_value())
    assert abs(math.cos(t) ** 2 - math.cos(r) ** 2) <= 1e-15
    assert abs(math.sin(t) ** 2 - math.sin(r) ** 2) <= 1e-15


def test_csv_labels_match_node_labels():
    assert csv_labels(4) == [f'"{inputs.node_label(g)}"' for g in range(32)]


def test_inputs_repeat_for_a_seed():
    a, b = inputs.generator(7, 1), inputs.generator(7, 1)
    assert [inputs.time(a) for _ in range(6)] == [inputs.time(b) for _ in range(6)]
    assert all(0 <= inputs.time(a) < math.pi for _ in range(100))
    large = inputs.large_times(inputs.generator(7, 4), 100)
    assert large == inputs.large_times(inputs.generator(7, 4), 100)
    assert all(math.pi <= t <= inputs.LARGE_T_MAX for t in large)
