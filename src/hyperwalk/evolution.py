"""Time evolution of the walk through three interchangeable engines.

The generator has even integer eigenvalues, so the evolution unitary is
exactly pi-periodic in time.  Engines:

* ``spectral`` (default): the unitary is the tensor power of the one-bit
  factor R(t) = [[a0, a1], [a1, a0]], applied to a copy of the state in one
  in-place per-bit sweep (``apply_per_bit``); O(dim * (L+1)) per call, with
  a fixed-size buffer as the only other memory.  A one-hot start (a basis
  node times a unit phase) is evaluated in closed form instead, in O(dim).
* ``product``: the commuting factor product, one factor per element, each
  acting as phase * (cos t - i sin t * flip); exercises the involution
  algebra with no transform.
* ``dense``: cached dense eigenvector matrix; applies the diagonalized
  unitary through dense products.  Gated to dim <= DENSE_CAP and used as
  the small-scale oracle.
"""

from __future__ import annotations

import math

import numpy as np

from ._walsh import apply_per_bit, flip_bit, parity_signs
from .operators import DENSE_CAP, NORM_TOL, StateVector
from .spectral import basis_start_amplitudes, bit_factor, phases_by_index
from .subsets import Level

ENGINE_KINDS = ("spectral", "product", "dense")


def _dense_basis(level: Level) -> np.ndarray:
    """Dense orthogonal matrix whose column s is the signed basis vector s."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    mat = np.array([[1.0]])
    for _ in range(level.L + 1):
        mat = np.kron(mat, h)
    mat *= parity_signs(level.dim)[:, None]
    mat /= math.sqrt(level.dim)
    return mat


class EvolutionEngine:
    """Handle selecting one evolution strategy for a fixed level.

    Immutable after construction; concurrent evolve calls on one engine are
    safe because every call works on its own buffers.
    """

    def __init__(self, level: Level, kind: str = "spectral"):
        if kind not in ENGINE_KINDS:
            raise ValueError(f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
        if kind == "dense" and level.dim > DENSE_CAP:
            raise ValueError(
                f"dense engine requires dim <= {DENSE_CAP}, got {level.dim} (L={level.L})"
            )
        self.kind = kind
        self.level = level
        self._basis = _dense_basis(level) if kind == "dense" else None

    def __repr__(self) -> str:
        return f"EvolutionEngine(level=Level({self.level.L}), kind={self.kind!r})"


def evolve(
    engine: EvolutionEngine,
    initial: StateVector,
    t: float,
    renormalize: bool = False,
) -> StateVector:
    """State at time t from the given initial state.

    The input must be normalized; pass renormalize=True to scale it instead
    of rejecting it.  Output norm is preserved to machine precision.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    initial = checked_start(engine, initial, renormalize)
    if engine.kind == "spectral":
        return _evolve_spectral(initial, t)
    if engine.kind == "product":
        return _evolve_product(engine.level, initial, t)
    return _evolve_dense(engine, initial, t)


def checked_start(
    engine: EvolutionEngine, initial: StateVector, renormalize: bool = False
) -> StateVector:
    """The start evolve runs from: on the engine's level and normalized, or
    scaled to norm 1 when renormalize is set; ValueError otherwise."""
    if engine.level != initial.level:
        raise ValueError(
            f"engine level L={engine.level.L} does not match state level L={initial.level.L}"
        )
    if not initial.is_normalized(NORM_TOL):
        if renormalize:
            return initial.normalized()
        raise ValueError(
            f"initial state is not normalized (norm {initial.norm()!r}); "
            "pass renormalize=True to scale it"
        )
    return initial


def one_hot_node(amps: np.ndarray) -> int | None:
    """The node of a state with exactly one nonzero amplitude, else None.

    count_nonzero allocates nothing, so a dense state pays one pass.
    """
    if np.count_nonzero(amps) != 1:
        return None
    return int(np.flatnonzero(amps)[0])


def _evolve_spectral(initial: StateVector, t: float) -> StateVector:
    amps = initial.amps
    # a one-hot start stays a product state
    sigma = one_hot_node(amps)
    if sigma is not None:
        out = basis_start_amplitudes(initial.level, sigma, t, amps[sigma])
        return StateVector(initial.level, out)
    out = amps.copy()
    apply_per_bit(out, bit_factor(t))
    return StateVector(initial.level, out)


def _evolve_product(level: Level, initial: StateVector, t: float) -> StateVector:
    cos_t = math.cos(t)
    sin_t = math.sin(t)
    phase = complex(math.cos(t), math.sin(t))
    out = initial.amps
    for k in range(level.L + 1):
        out = phase * (cos_t * out - 1j * sin_t * flip_bit(out, k))
    return StateVector(level, out)


def _evolve_dense(engine: EvolutionEngine, initial: StateVector, t: float) -> StateVector:
    basis = engine._basis
    coeffs = basis.T @ initial.amps
    coeffs *= phases_by_index(engine.level, t)
    return StateVector(engine.level, basis @ coeffs)


def materialize_unitary(level: Level, t: float, dense_cap: int = DENSE_CAP) -> np.ndarray:
    """Dense evolution unitary at time t, built from the diagonalization.

    Small-scale cross-check target; gated by dense_cap.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    if level.dim > dense_cap:
        raise ValueError(f"dimension {level.dim} exceeds dense cap {dense_cap}")
    basis = _dense_basis(level)
    phases = phases_by_index(level, t)
    return (basis * phases[None, :]) @ basis.T
