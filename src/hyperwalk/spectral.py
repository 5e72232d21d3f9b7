"""Eigenbasis of the flip-sum Laplacian and the fast change of basis.

The Laplacian diagonalizes over signed vectors indexed by the same node
bitmasks as the canonical basis.  The change of basis has kernel
(-1)**popcount(g & ~s) / sqrt(dim) in (row s, column g), which is a tensor
power of the one-bit matrix W = [[1, -1], [1, 1]] / sqrt(2): the parity sign
and the normalization fold into W, so the change of basis is one in-place
per-bit sweep, cross-checked against the literal kernel in the test suite.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from . import _numpy as np
from ._walsh import apply_per_bit
from .operators import StateVector
from .subsets import Level


class SpectrumEntry(NamedTuple):
    eigenvalue: int
    multiplicity: int
    card: int


class Spectrum(NamedTuple):
    """Eigenvalues of the Laplacian with multiplicities, ascending.

    The eigenvalue 2k is carried by the signed basis vectors whose index has
    popcount L+1-k (the `card` field), so its multiplicity is the binomial
    coefficient C(L+1, k).
    """

    level: Level
    entries: tuple[SpectrumEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "L": self.level.L,
            "entries": [
                {"eigenvalue": e.eigenvalue, "multiplicity": e.multiplicity, "card": e.card}
                for e in self.entries
            ],
        }


T_MAX = sys.float_info.max / 2  # the largest |t| whose phase argument 2t is finite


def _bit_amplitudes(t: float) -> tuple[complex, complex, float, float, complex]:
    """(a0, a1, cos t, sin t, e^{it}), with (a0, a1) = ((1+z)/2, (1-z)/2) and
    z = exp(2it): e^{it}(cos t I - i sin t X) maps one bit to a0 times itself
    plus a1 times its flip.

    The only place the walk's phase is computed, and so the only check of a
    time: it must be finite, as a Python int of any size is.  libm reduces
    the exact arguments t and 2t correctly at any magnitude; reducing t by
    the float pi first would round the phase away at large t.  Above T_MAX
    the argument 2t overflows, so such a time, an int among them, is refused.
    """
    if not (isinstance(t, int) or math.isfinite(t)):
        raise ValueError(f"time must be finite, got {t!r}")
    if abs(t) > T_MAX:
        raise ValueError(f"time {t!r} exceeds the largest evaluable magnitude {T_MAX!r}")
    z = cmath.exp(2j * t)
    cos_t, sin_t = math.cos(t), math.sin(t)
    return (1.0 + z) / 2.0, (1.0 - z) / 2.0, cos_t, sin_t, complex(cos_t, sin_t)


def bit_factor(t: float) -> tuple[tuple, complex, complex]:
    """The walk's one-bit factor R(t) = [[a0, a1], [a1, a0]] as the per-bit
    kernel takes it, (M(t), e^{it}, -1j): R(t) = e^{it} D M(t) D with the real
    M(t) = [[cos t, sin t], [sin t, -cos t]] and D = diag(1, -i).  The
    evolution unitary at time t is its tensor power over the L+1 bits."""
    _, _, cos_t, sin_t, phase = _bit_amplitudes(t)
    return ((cos_t, sin_t), (sin_t, -cos_t)), phase, -1j


def basis_start_classes(level: Level, sigma: int, t: float) -> ClassTable:
    """Amplitudes at time t of the walk started from node sigma.

    The generator is a sum of commuting one-bit terms (see bit_factor), so
    the evolved state is a product state: over m = L+1 bits, node g holds
    a0**(m-d) * a1**d, d = popcount(g ^ sigma), one entry per distance.
    """
    a0, a1, *_ = _bit_amplitudes(t)
    m = level.L + 1
    return ClassTable(level, sigma, tuple(a0 ** (m - d) * a1**d for d in range(m + 1)))


class ClassTable(NamedTuple):
    """A value per node that depends on node g only through its Hamming
    distance d = popcount(g ^ sigma) from the start node sigma: g holds table[d].

    table is a tuple of L+2 Python numbers (or pairs of them), one entry per
    distance 0..L+1, so a quantity over all 2**(L+1) nodes is carried in O(L)
    numbers.
    """

    level: Level
    sigma: int
    table: tuple

    def with_table(self, table: tuple) -> ClassTable:
        """Another quantity over the same classes."""
        return ClassTable(self.level, self.sigma, table)

    def at(self, g: int):
        """The entry of node g."""
        return self.table[(g ^ self.sigma).bit_count()]

    def grid(self, lo: int | None = None) -> tuple[list[list], list[int]]:
        """(classes, rows) on the node index read as the (2**hi, 2**lo) grid
        g = i * 2**lo + j, with hi = L+1 - lo and by default lo = (L+1) // 2:
        node g lies at distance rows[i] + cols[j], the popcounts of the high and
        low bits of g ^ sigma, so grid row i is the row class classes[rows[i]],
        with classes[r][j] = table[r + cols[j]]: hi+1 classes of 2**lo entries."""
        m = self.level.L + 1
        lo = m // 2 if lo is None else lo
        high, low = self.sigma >> lo, self.sigma & ((1 << lo) - 1)
        rows = [(i ^ high).bit_count() for i in range(1 << (m - lo))]
        cols = [(j ^ low).bit_count() for j in range(1 << lo)]
        return [[self.table[r + c] for c in cols] for r in range(m - lo + 1)], rows

    def materialize(self) -> np.ndarray:
        """The entries of every node in index order, as a numpy array: one
        gather of the grid's row classes."""
        classes, rows = self.grid()
        return np.array(classes)[rows].reshape(self.level.dim, *np.shape(self.table[0]))

    def argmax(self) -> int:
        """np.argmax of materialize() for a table of real numbers: the smallest
        node at a distance that holds the largest entry, in the first grid row
        whose class holds it."""
        classes, rows = self.grid()
        best = max(self.table)
        i = next(i for i, r in enumerate(rows) if best in classes[r])
        return i * len(classes[0]) + classes[rows[i]].index(best)


def spectrum(level: Level) -> Spectrum:
    """Full spectrum: eigenvalues {0, 2, ..., 2(L+1)} with binomial multiplicities."""
    m = level.L + 1
    entries = tuple(
        SpectrumEntry(eigenvalue=2 * k, multiplicity=math.comb(m, k), card=m - k)
        for k in range(m + 1)
    )
    return Spectrum(level=level, entries=entries)


# one-bit factor of the forward change of basis: row s, column g holds
# (-1)**(g & ~s) / sqrt(2); the inverse applies its transpose
_HALF_ROOT = 1.0 / math.sqrt(2.0)
_FORWARD_BIT = ((_HALF_ROOT, -_HALF_ROOT), (_HALF_ROOT, _HALF_ROOT))


def to_eigenbasis(state: StateVector) -> StateVector:
    """Coefficients of the state on the signed eigenbasis: one per-bit sweep
    of W = [[1, -1], [1, 1]] / sqrt(2) into a new array."""
    return StateVector(state.level, apply_per_bit(state.amps, _FORWARD_BIT))


def from_eigenbasis(coeffs: StateVector) -> StateVector:
    """Inverse change of basis: the per-bit sweep of W's transpose."""
    return StateVector(coeffs.level, apply_per_bit(coeffs.amps, tuple(zip(*_FORWARD_BIT))))
