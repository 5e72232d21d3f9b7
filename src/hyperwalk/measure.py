"""Node-occupation probabilities of the walk and their long-run averages.

The time-average distribution from the vacuum is computed three ways:

* ``quadrature``: equal-weight average of the pointwise distribution over
  M = 2L+4 equispaced times in [0, pi).  Every occupation probability is a
  trigonometric polynomial whose frequencies are even integers of magnitude
  at most 2(L+1), so any equispaced average with M >= 2L+3 points kills all
  nonzero frequencies by aliasing and the finite sum equals the integral
  exactly; M = 2L+4 keeps one point of margin.  Works for any initial state.
* ``pair_sum``: the literal double sum over index pairs of equal cardinality,
  O(4**(L+1)); kept as the ground-truth oracle and gated to L <= 7.
* ``krawtchouk``: the cardinality-grouped evaluation.  The inner sum of
  signs over all subsets of fixed cardinality k depends only on (popcount of
  the node, k) and reduces to a binomial convolution, making the average
  computable at L = 20.  Vacuum initial state only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .evolution import EvolutionEngine, evolve
from .formatting import iter_csv
from .operators import StateVector, basis_state
from .spectral import phase_powers
from .subsets import Level, cardinality

TIME_AVERAGE_METHODS = ("quadrature", "pair_sum", "krawtchouk")
PAIR_SUM_MAX_LEVEL = 7
VACUUM_TOL = 1e-12


@dataclass
class Distribution:
    """Occupation probabilities over nodes at one instant."""

    level: Level
    probs: np.ndarray
    time: float | None = None

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.shape != (self.level.dim,):
            raise ValueError(f"probability array must have shape ({self.level.dim},)")
        self.probs = probs


@dataclass
class TimeAverageDistribution:
    """Average occupation probabilities over one full period."""

    level: Level
    probs: np.ndarray
    method: str

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.shape != (self.level.dim,):
            raise ValueError(f"probability array must have shape ({self.level.dim},)")
        self.probs = probs


class SymmetryReport(NamedTuple):
    symmetric: bool
    max_deviation: float
    worst_node: int


def distribution_at(engine: EvolutionEngine, initial: StateVector, t: float) -> Distribution:
    """Pointwise distribution: squared amplitude magnitudes of the evolved state."""
    state = evolve(engine, initial, t)
    probs = np.abs(state.amps) ** 2
    return Distribution(level=engine.level, probs=probs, time=float(t))


@lru_cache(maxsize=None)
def _cardinality_sign_sums(L: int) -> tuple[tuple[int, ...], ...]:
    """Row s, column k: integer sum of (-1)**popcount(node minus g) over all
    subsets g of fixed cardinality k, for any node of cardinality s.

    Splitting g into j elements inside the node and k-j outside gives the
    binomial convolution sum_j (-1)**(s-j) C(s, j) C(L+1-s, k-j).
    """
    m = L + 1
    table = []
    for s in range(m + 1):
        row = []
        for k in range(m + 1):
            total = 0
            for j in range(max(0, k - (m - s)), min(s, k) + 1):
                total += (-1) ** (s - j) * math.comb(s, j) * math.comb(m - s, k - j)
            row.append(total)
        table.append(tuple(row))
    return tuple(table)


def closed_form_pt(sigma: int, t: float, level: Level) -> float:
    """Vacuum-start occupation probability of one node at time t, in closed form.

    Evaluates the squared magnitude of the cardinality-grouped phase sum;
    specific to the vacuum initial state.
    """
    level.validate_node(sigma)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    m = level.L + 1
    row = _cardinality_sign_sums(level.L)[cardinality(sigma)]
    powers = phase_powers(t, m).tolist()
    z = sum(row[k] * powers[m - k] for k in range(m + 1))
    return abs(z) ** 2 / float(level.dim) ** 2


def closed_form_distribution(level: Level, t: float) -> Distribution:
    """Vacuum-start distribution over all nodes via the closed form."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    m = level.L + 1
    table = _cardinality_sign_sums(level.L)
    powers = phase_powers(t, m).tolist()
    by_card = np.empty(m + 1, dtype=np.float64)
    for s in range(m + 1):
        z = sum(table[s][k] * powers[m - k] for k in range(m + 1))
        by_card[s] = abs(z) ** 2 / float(level.dim) ** 2
    cards = np.bitwise_count(np.arange(level.dim, dtype=np.uint64)).astype(np.intp)
    return Distribution(level=level, probs=by_card[cards], time=float(t))


def quadrature_point_count(level: Level) -> int:
    """Number of equispaced sample times that makes the average exact."""
    return 2 * level.L + 4


def _require_vacuum(initial: StateVector) -> None:
    ref = np.zeros(initial.level.dim, dtype=np.complex128)
    ref[0] = 1.0
    if np.max(np.abs(initial.amps - ref)) > VACUUM_TOL:
        raise ValueError("this method requires the vacuum (empty-node basis) initial state")


def time_average(
    initial: StateVector,
    method: str = "quadrature",
    engine: EvolutionEngine | None = None,
) -> TimeAverageDistribution:
    """Average distribution over one period of the walk.

    quadrature accepts any normalized initial state (and any engine, default
    spectral); pair_sum and krawtchouk implement the vacuum-start closed
    forms and reject other initial states.
    """
    level = initial.level
    if method not in TIME_AVERAGE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {TIME_AVERAGE_METHODS}"
        )
    if method == "quadrature":
        probs = _quadrature_average(initial, engine)
    elif method == "pair_sum":
        if level.L > PAIR_SUM_MAX_LEVEL:
            raise ValueError(
                f"pair_sum is gated to L <= {PAIR_SUM_MAX_LEVEL}, got L={level.L}"
            )
        _require_vacuum(initial)
        probs = _pair_sum_average(level)
    else:
        _require_vacuum(initial)
        probs = _grouped_average(level)
    return TimeAverageDistribution(level=level, probs=probs, method=method)


def _quadrature_average(initial: StateVector, engine: EvolutionEngine | None) -> np.ndarray:
    level = initial.level
    if engine is None:
        engine = EvolutionEngine(level)
    elif engine.level != level:
        raise ValueError("engine level does not match the initial state")
    m = quadrature_point_count(level)
    acc = np.zeros(level.dim, dtype=np.float64)
    for j in range(m):
        acc += distribution_at(engine, initial, j * math.pi / m).probs
    return acc / m


def _pair_sum_average(level: Level) -> np.ndarray:
    """Literal double sum over pairs of equal-cardinality subsets."""
    dim = level.dim
    full = np.uint64(level.full_mask)
    idx = np.arange(dim, dtype=np.uint64)
    cards = np.bitwise_count(idx)
    classes = [idx[cards == k] for k in range(level.L + 2)]
    probs = np.empty(dim, dtype=np.float64)
    scale = float(dim) ** 2
    for sigma in range(dim):
        total = 0
        for members in classes:
            diff = np.uint64(sigma) & ~members & full
            signs = 1 - 2 * (np.bitwise_count(diff).astype(np.int64) & 1)
            total += int(np.outer(signs, signs).sum())
        probs[sigma] = total / scale
    return probs


def _grouped_average(level: Level) -> np.ndarray:
    table = _cardinality_sign_sums(level.L)
    m = level.L + 1
    scale = float(level.dim) ** 2
    by_card = np.empty(m + 1, dtype=np.float64)
    for s in range(m + 1):
        by_card[s] = float(sum(a * a for a in table[s])) / scale
    cards = np.bitwise_count(np.arange(level.dim, dtype=np.uint64)).astype(np.intp)
    return by_card[cards]


def vacuum_average_value(level: Level) -> Fraction:
    """Exact average occupation of the empty node (and of the full node) for
    the vacuum-start walk: odd double factorial over even double factorial."""
    num = 1
    for j in range(1, 2 * level.L + 2, 2):
        num *= j
    den = 1
    for j in range(2, 2 * level.L + 3, 2):
        den *= j
    return Fraction(num, den)


def is_symmetric(dist: TimeAverageDistribution | Distribution, tol: float = 1e-12) -> SymmetryReport:
    """Check invariance under node complement; reports the worst node."""
    level = dist.level
    flipped = dist.probs[np.arange(level.dim, dtype=np.intp) ^ level.full_mask]
    dev = np.abs(dist.probs - flipped)
    worst = int(np.argmax(dev))
    max_dev = float(dev[worst])
    return SymmetryReport(symmetric=max_dev <= tol, max_deviation=max_dev, worst_node=worst)


def pst_check(sigma: int, tau: int, t0: float, engine: EvolutionEngine) -> float:
    """Transfer fidelity: magnitude of the overlap between the evolved one-hot
    state at sigma and the one-hot state at tau.  1 means perfect transfer."""
    level = engine.level
    level.validate_node(sigma)
    level.validate_node(tau)
    state = evolve(engine, basis_state(level, sigma), t0)
    return float(abs(state.amps[tau]))


def distribution_csv(dist: TimeAverageDistribution | Distribution, value_header: str = "probability") -> str:
    """CSV export with canonical node strings (node field always quoted)."""
    return "".join(iter_csv(f"node,{value_header}", [dist.probs]))


def distribution_json_dict(dist: TimeAverageDistribution | Distribution) -> dict:
    """JSON-ready dict with the probs array indexed by node bitmask."""
    doc: dict = {"L": dist.level.L}
    if isinstance(dist, TimeAverageDistribution):
        doc["method"] = dist.method
    elif dist.time is not None:
        doc["t"] = dist.time
    doc["probs"] = [float(p) for p in dist.probs]
    return doc
