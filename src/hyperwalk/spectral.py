"""The walk's one-bit factor, its node-start tables, the eigenbasis of the
flip-sum Laplacian and the fast change of basis.

bit_factor alone computes the walk's phase, the triple (cos t, sin t,
e^{imt}), which the per-bit kernel and the node-start tables both take.
The Laplacian diagonalizes over signed vectors indexed by the same node
bitmasks as the canonical basis.  The change of basis has kernel
(-1)**popcount(g & ~s) / sqrt(dim) in (row s, column g): the parity sign
(-1)**popcount(g), the ±1 transform's (-1)**popcount(g & s), an in-place
butterfly that shares nothing with the walk's per-bit kernel, and one
scale, cross-checked against the literal kernel in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .operators import StateVector, sign_column
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
        return {"L": self.level.L, "entries": [e._asdict() for e in self.entries]}


def bit_factor(t: float, m: int) -> tuple[float, float, complex]:
    """(cos t, sin t, e^{imt}): the walk's one-bit factor
    e^{it}(cos t I - i sin t X) = e^{it} D M(t) D, M(t) = [[cos t, sin t],
    [sin t, -cos t]] and D = diag(1, -i), whose tensor power over the m = L+1
    bits is the evolution, e^{imt} (D M(t) D)^⊗m.  The global phase e^{imt}
    is the integer power of cos t + i sin t scaled back to modulus 1.

    The one check of a time: it must be finite, and an int must convert to a
    float.  libm reduces the exact t correctly at any magnitude; reducing t by
    the float pi first would round the phase away at large t.
    """
    if not (isinstance(t, int) or math.isfinite(t)):
        raise ValueError(f"time must be finite, got {t!r}")
    try:
        cos_t, sin_t = math.cos(t), math.sin(t)
    except OverflowError:  # an int beyond the float range, named by its size
        raise ValueError(f"time {'-' if t < 0 else ''}<int of {t.bit_length()} bits> is beyond the float range") from None
    phase = complex(cos_t, sin_t) ** m
    return cos_t, sin_t, phase / abs(phase)


def basis_start_classes(level: Level, sigma: int, t: float) -> ClassTable:
    """Amplitudes at time t of the walk started from node sigma, a product
    state (see bit_factor): over m = L+1 bits, node g holds
    cos(t)**(m-d) (-i sin t)**d e^{imt}, d = popcount(g ^ sigma), one entry
    per distance.
    """
    m = level.L + 1
    cos_t, sin_t, phase = bit_factor(t, m)
    table = (cos_t ** (m - d) * sin_t**d * (1, -1j, -1, 1j)[d % 4] * phase for d in range(m + 1))
    return ClassTable(level, sigma, tuple(table))


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
        node at a distance that holds the largest entry.  The smallest node at
        distance d flips the first d of flips: sigma's set bits from the
        highest down, then the bits it lacks from the lowest up."""
        best = max(self.table)
        flips = sorted((1 << k for k in range(self.level.L + 1)), key=lambda bit: -bit if self.sigma & bit else bit)
        return min(self.sigma ^ sum(flips[:d]) for d, x in enumerate(self.table) if x == best)


def spectrum(level: Level) -> Spectrum:
    """Full spectrum: eigenvalues {0, 2, ..., 2(L+1)} with binomial multiplicities."""
    m = level.L + 1
    entries = tuple(
        SpectrumEntry(eigenvalue=2 * k, multiplicity=math.comb(m, k), card=m - k)
        for k in range(m + 1)
    )
    return Spectrum(level=level, entries=entries)


def to_eigenbasis(state: StateVector) -> StateVector:
    """Coefficients of the state on the signed eigenbasis, into a new array:
    the parity signs, the ±1 transform, then 1/sqrt(dim)."""
    amps = _pm1(sign_column(state.level.full_mask, state.level.dim) * state.amps)
    amps *= state.level.dim**-0.5
    return StateVector(state.level, amps)


def from_eigenbasis(coeffs: StateVector) -> StateVector:
    """Inverse change of basis: the ±1 transform, then the parity signs
    over sqrt(dim)."""
    amps = _pm1(coeffs.amps.copy())
    amps *= sign_column(coeffs.level.full_mask, coeffs.level.dim) * coeffs.level.dim**-0.5
    return StateVector(coeffs.level, amps)


def _pm1(amps: np.ndarray) -> np.ndarray:
    """The unnormalized ±1 transform of amps, in place: entry s becomes the
    sum over g of (-1)**popcount(s & g) amps[g], as per bit each pair (x, y)
    of entries that differ in it becomes (x + y, x - y)."""
    for bit in range(len(amps).bit_length() - 1):
        x, y = amps.reshape(-1, 2, 1 << bit).transpose(1, 0, 2)
        difference = x - y
        x += y
        y[...] = difference
    return amps
