"""State vectors over the node bitmasks; the flip-sum Laplacian, its terms (the
flips) and its signed projections; its spectrum, eigenbasis and change of basis;
the walk's one-bit factor and node-start tables.

Amplitudes live in a flat complex array indexed by node bitmask, and every
basis operator here is an index permutation or a short combination of them;
none touches a matrix.  bit_factor alone computes the walk's phase, the triple
(cos t, sin t, e^{imt}), which the per-bit kernel and the node-start tables
both take.  The eigenbasis is signed vectors indexed by node bitmask, as the
canonical basis is; the change of basis has kernel (-1)**popcount(g & ~s) /
sqrt(dim) in (row s, column g): the parity sign (-1)**popcount(g), the ±1
transform's (-1)**popcount(g & s), an in-place butterfly that shares nothing
with the per-bit kernel, and one scale, checked against the literal kernel.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .subsets import Level

NORM_TOL = 1e-12
NORM_RUN = 8192  # amplitudes per vdot: a longer one starts OpenBLAS's threads


class StateVector:
    """Vector in the 2**(L+1)-dimensional walk space; amps[sigma] is the
    coefficient on the basis vector of node sigma."""

    def __init__(self, level: Level, amps: np.ndarray) -> None:
        amps = np.ascontiguousarray(amps, dtype=np.complex128)
        if amps.shape != (level.dim,):
            raise ValueError(f"amplitude array must have shape ({level.dim},), got {amps.shape}")
        self.level, self.amps = level, amps

    def __repr__(self) -> str:
        return f"StateVector(level={self.level!r}, amps={self.amps!r})"

    def norm(self) -> float:
        return math.sqrt(self._squared_norm())

    def is_normalized(self) -> bool:
        """Whether the squared norm is within NORM_TOL of 1 (is_unit)."""
        return is_unit(self._squared_norm())

    def _squared_norm(self) -> float:
        """The vdot of each aligned run of NORM_RUN amplitudes with itself,
        summed in index order: the sum every start is checked by (check_unit)."""
        runs = (self.amps[i : i + NORM_RUN] for i in range(0, len(self.amps), NORM_RUN))
        return sum(float(np.vdot(run, run).real) for run in runs)


def is_unit(squared_norm: float) -> bool:
    """Whether a squared norm is within NORM_TOL of 1; never a NaN."""
    return abs(squared_norm - 1.0) <= NORM_TOL


def check_unit(squared_norm: float) -> None:
    """Refuse a start whose squared norm, summed as StateVector._squared_norm
    sums it, is not is_unit: the one refusal of every evolution entry point."""
    if not is_unit(squared_norm):
        raise ValueError(f"initial state is not normalized (norm {math.sqrt(squared_norm)!r})")


def probability(z):
    """Occupation probability |z|**2 rounded as re² + im², of one complex
    number or, entry by entry and with the same bits, of a complex array."""
    return z.real * z.real + z.imag * z.imag


def sign_column(sigma: int, n: int) -> np.ndarray:
    """Vector of (-1)**popcount(i & sigma): one column of the unnormalized transform."""
    counts = np.bitwise_count(np.arange(n, dtype=np.uint64) & np.uint64(sigma))
    return 1.0 - 2.0 * (counts & 1).astype(np.float64)


def basis_state(level: Level, sigma: int) -> StateVector:
    """One-hot state at node sigma."""
    sigma = level.validate_node(sigma)
    amps = np.zeros(level.dim, dtype=np.complex128)
    amps[sigma] = 1.0
    return StateVector(level, amps)


def vacuum_state(level: Level) -> StateVector:
    """One-hot state at the empty set."""
    return basis_state(level, 0)


def apply_involution(k: int, state: StateVector) -> StateVector:
    """Flip element k: swap amplitudes of every pair of nodes differing in k.

    A self-inverse index permutation, hence exactly unitary.
    """
    if not hasattr(k, "__index__") or isinstance(k, bool):  # numpy's integers too, not its bool
        raise ValueError(f"flip index must be an integer, got {k!r:.60}")
    if not 0 <= (k := k.__index__()) <= state.level.L:
        raise ValueError(f"flip index {k} out of range [0, {state.level.L}]")
    return StateVector(state.level, state.amps.reshape(-1, 2, 1 << k)[:, ::-1].reshape(-1))


def apply_involution_product(sigma: int, state: StateVector) -> StateVector:
    """Compose the single-element flips over all elements of sigma.

    The flips commute, so the product is order-free and acts as one XOR
    relabeling: out[g] = in[g ^ sigma].  The empty product is the identity.
    """
    level = state.level
    sigma = level.validate_node(sigma)
    run = min(NORM_RUN, level.dim)
    # run by run, as apply_hat_involution walks: run i is run i ^ (sigma // run)
    # of the state, relabeled within by the low bits of sigma.  Every index is
    # in range; mode "clip" writes into out without the buffer "raise" takes.
    low, high = np.arange(run) ^ (sigma % run), sigma // run
    runs, out = state.amps.reshape(-1, run), np.empty_like(state.amps)
    for i, into in enumerate(out.reshape(-1, run)):
        np.take(runs[i ^ high], low, out=into, mode="clip")
    return StateVector(level, out)


def apply_hat_involution(sigma: int, state: StateVector) -> StateVector:
    """Signed sum of all XOR relabelings, with sign depending on sigma.

    Algebraically this equals dim times the orthogonal projection onto one
    signed basis vector, which is how it is evaluated here (two O(dim)
    passes instead of 2**(L+1) permutation terms).  That vector is the sign
    column of the complement of sigma: the parity sign of g times
    (-1)**popcount(g & sigma) is (-1)**popcount(g & ~sigma).  Composing it
    with itself scales by dim; distinct sigma annihilate each other.
    """
    level = state.level
    sigma = level.validate_node(sigma)
    mask, run = level.full_mask ^ sigma, min(NORM_RUN, level.dim)
    # run by run, as _squared_norm sums (one long dot wakes OpenBLAS's threads):
    # the column's run at i is its first run, negated if i & mask has odd parity
    low = sign_column(mask, run)
    signed = (low, -low)
    cols = [signed[(i & mask).bit_count() & 1] for i in range(0, level.dim, run)]
    out = np.empty_like(state.amps)
    overlap = sum(np.dot(col, amps) for col, amps in zip(cols, state.amps.reshape(-1, run)))
    for col, into in zip(cols, out.reshape(-1, run)):
        np.multiply(overlap, col, out=into)
    return StateVector(level, out)


def apply_laplacian(state: StateVector) -> StateVector:
    """(L+1) times the state minus the sum of all single-element flips.

    Self-adjoint and positive semidefinite; not unitary, so the output is
    returned raw and never renormalized.
    """
    level = state.level
    out = (level.L + 1) * state.amps
    for k in range(level.L + 1):
        o = out.reshape(-1, 2, 1 << k)  # apply_involution's view, subtracted without its copy
        o -= state.amps.reshape(-1, 2, 1 << k)[:, ::-1]
    return StateVector(level, out)



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
    float.  libm reduces a float t exactly, _reduced an int (numpy's too) that
    no float holds, to a float x and the rest lo, which enters to first order:
    cos x - lo sin x, sin x + lo cos x.  Reducing t by the float pi, or taking
    x alone near an odd multiple of π/2, would round the phase away.
    """
    t = int(t) if hasattr(t, "__index__") else t
    if not (isinstance(t, int) or math.isfinite(t)):
        raise ValueError(f"time must be finite, got {t!r}")
    try:
        x, lo = _reduced(t) if isinstance(t, int) and float(t) != t else (t, 0)
    except OverflowError:  # an int beyond the float range, named by its size
        raise ValueError(f"time {'-' if t < 0 else ''}<int of {t.bit_length()} bits> is beyond the float range") from None
    cos_t, sin_t = math.cos(x), math.sin(x)
    if lo:
        cos_t, sin_t = cos_t - sin_t * lo, sin_t + cos_t * lo
    phase = complex(cos_t, sin_t) ** m
    return cos_t, sin_t, phase / abs(phase)


def _reduced(t: int) -> tuple[float, float]:
    """(x, lo): x the float nearest r = t - 2πk, k = round(t / 2π), and lo the
    float nearest r - x, with 2π·2**p, p = t.bit_length() + 80, from Machin's
    formula π/4 = 4 arctan(1/5) - arctan(1/239) in integers."""
    p, two_pi = t.bit_length() + 80, 0
    for weight, x in ((32, 5), (-8, 239)):  # the arctan(1/x) series, term by term
        term, n = (weight << p) // x, 1
        while term:
            two_pi += term // n
            term, n = -term // (x * x), n + 2
    k = ((t << p) + two_pi // 2) // two_pi
    r = (t << p) - k * two_pi
    a, b = (r / (1 << p)).as_integer_ratio()  # x = a / b, b a power of two
    return a / b, (r * b - (a << p)) / (b << p)


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
