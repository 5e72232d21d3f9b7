"""State vectors over the subset-indexed basis and the operators acting on them.

Amplitudes live in a flat complex array indexed by node bitmask, so every
basis operator here is either an index permutation or a short combination of
permutations; nothing in the hot path touches a matrix.
"""

from __future__ import annotations

import math

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
    level.validate_node(sigma)
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
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"flip index must be an integer, got {k!r}")
    if not 0 <= k <= state.level.L:
        raise ValueError(f"flip index {k} out of range [0, {state.level.L}]")
    return StateVector(state.level, state.amps.reshape(-1, 2, 1 << k)[:, ::-1].reshape(-1))


def apply_involution_product(sigma: int, state: StateVector) -> StateVector:
    """Compose the single-element flips over all elements of sigma.

    The flips commute, so the product is order-free and acts as one XOR
    relabeling: out[g] = in[g ^ sigma].  The empty product is the identity.
    """
    level = state.level
    level.validate_node(sigma)
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
    level.validate_node(sigma)
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

