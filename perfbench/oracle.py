"""Reference values for the walk, derived from its physics alone.

Nothing here imports hyperwalk.  The generator H = sum_k (I - X_k) is a sum of
m = L+1 commuting single-bit terms, so the walk unitary exp(itH) is the
tensor product of m copies of the 2x2 factor e^{it}(cos t I - i sin t X).
From a basis node sigma every amplitude then depends only on the Hamming
distance d = popcount(g ^ sigma):

    p(g) = cos^{2(m-d)} t * sin^{2d} t,

and its average over a period is the Beta integral

    pbar(d) = (2(m-d)-1)!! (2d-1)!! / (2m)!!.

A sum of product states evolves factor by factor.  test_oracle.py pins all
three forms to a dense matrix exponential at small L.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def distances(L: int, sigma: int) -> np.ndarray:
    """Hamming distance from sigma of every node index in [0, 2**(L+1))."""
    idx = np.arange(1 << (L + 1), dtype=np.uint64)
    return np.bitwise_count(idx ^ np.uint64(sigma)).astype(np.intp)


def basis_probs(L: int, sigma: int, t: float) -> np.ndarray:
    """Occupation probabilities at time t of the walk started at node sigma."""
    m = L + 1
    c2 = math.cos(t) ** 2
    s2 = math.sin(t) ** 2
    table = np.array([c2 ** (m - d) * s2**d for d in range(m + 1)])
    return table[distances(L, sigma)]


def _double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def period_average_table(L: int) -> list[Fraction]:
    """Exact period-averaged probability at each distance d = 0..L+1."""
    m = L + 1
    den = _double_factorial(2 * m)
    return [
        Fraction(_double_factorial(2 * (m - d) - 1) * _double_factorial(2 * d - 1), den)
        for d in range(m + 1)
    ]


def period_average_probs(L: int, sigma: int) -> np.ndarray:
    """Period-averaged occupation probabilities of the walk started at sigma."""
    table = np.array([float(p) for p in period_average_table(L)])
    return table[distances(L, sigma)]


def kron_all(factors: np.ndarray) -> np.ndarray:
    """Product state from an (m, 2) array; row k is the factor on bit k."""
    out = np.ones(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(f, out)  # bit k becomes the most significant so far
    return out


def evolve_factors(factors: np.ndarray, t: float) -> np.ndarray:
    """Apply e^{it}(cos t I - i sin t X) to every 2-vector row."""
    phase = complex(math.cos(t), math.sin(t))
    return phase * (math.cos(t) * factors - 1j * math.sin(t) * factors[:, ::-1])


def product_sum_norm2(states: np.ndarray) -> float:
    """Squared norm of the sum of product states, from the factor overlaps."""
    total = 0.0
    for a in states:
        for b in states:
            total += np.prod(np.sum(a.conj() * b, axis=1)).real
    return total


def product_sum_probs(states: np.ndarray, t: float) -> np.ndarray:
    """Probabilities at time t from the normalized sum of product states.

    states has shape (n, m, 2): n product states of m two-level factors.
    """
    amps = kron_all(evolve_factors(states[0], t))
    for s in states[1:]:
        amps += kron_all(evolve_factors(s, t))
    probs = amps.real**2
    probs += amps.imag**2
    probs /= product_sum_norm2(states)
    return probs
