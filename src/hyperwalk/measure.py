"""Node-occupation probabilities of the walk and their long-run averages.

The time-average distribution is computed one of two ways, chosen by the
initial state:

* From a basis node (one nonzero amplitude), the exact value per distance
  class.  The walk is then a product state whose occupation at distance d is
  cos(t)**(2(m-d)) * sin(t)**(2d), with m = L+1, so the period average is
  the Beta integral (2(m-d)-1)!! (2d-1)!! / (2m)!!, rounded once per
  distance by Python's correctly rounded int division.  The table is exactly
  symmetric under d -> m - d, the complement.
* From any other state, the ``quadrature``: equal-weight average of the
  pointwise distribution over M = L+2 equispaced times in [0, pi).  Every
  occupation probability is a trigonometric polynomial in frequencies 2n,
  |n| <= L+1, and M equispaced points average e^{2int} to zero unless M
  divides n, so M = L+2 is exact, and at M = L+1 the top frequency aliases
  onto the mean.  ``krawtchouk`` names the closed form alone and refuses such states.

Every probability is rounded as re² + im² by ``spectral.probability``, the
same bits on one amplitude as on an array; from a node, on the L+2 table
entries before the gather.  The literal double sum over equal-cardinality
index pairs, the ground-truth oracle for both averages, lives in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _numpy as np
from .evolution import EvolutionEngine, _evolve, apply_per_bit, checked_start
from .formatting import format_float
from .spectral import ClassTable, StateVector, basis_start_classes, bit_factor, probability
from .subsets import Level, element_strings

SYMMETRY_TOL = 1e-12  # largest deviation is_symmetric accepts


class _NodeProbabilities:
    """A float64 probability per node of the level, checked on construction."""

    def __init__(self, level: Level, probs: np.ndarray) -> None:
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if probs.shape != (level.dim,):
            raise ValueError(f"probability array must have shape ({level.dim},)")
        self.level, self.probs = level, probs


class Distribution(_NodeProbabilities):
    """Occupation probabilities over nodes at one instant."""

    def __init__(self, level: Level, probs: np.ndarray, time: float) -> None:
        super().__init__(level, probs)
        self.time = time


class TimeAverageDistribution(_NodeProbabilities):
    """Average occupation probabilities over one full period."""

    def __init__(self, level: Level, probs: np.ndarray, method: str) -> None:
        super().__init__(level, probs)
        self.method = method


class SymmetryReport(NamedTuple):
    symmetric: bool
    max_deviation: float
    worst_node: int


def distribution_at(engine: EvolutionEngine, initial: StateVector, t: float) -> Distribution:
    """Pointwise distribution: squared amplitude magnitudes of the evolved
    state, bit for bit probability(evolve(engine, initial, t).amps).  A
    dense state's amplitudes are squared tile by tile as they leave the
    kernel's last pass (evolution.apply_per_bit), a node start's once per
    distance before the gather; the evolved amplitudes are never stored."""
    probs = _evolve(engine, initial, t, square=True)
    return Distribution(level=engine.level, probs=probs, time=float(t))


def closed_form_pt(sigma: int, t: float, level: Level) -> float:
    """Vacuum-start occupation probability of one node at time t, in closed form.

    The walk from the vacuum is a product state, so the amplitude at sigma is
    one entry of its class table.
    """
    sigma = level.validate_node(sigma)
    return probability(basis_start_classes(level, 0, t).at(sigma))


def closed_form_distribution(level: Level, t: float) -> Distribution:
    """Vacuum-start distribution over all nodes via the closed form."""
    classes = basis_start_classes(level, 0, t)
    probs = classes.with_table(tuple(map(probability, classes.table))).materialize()
    return Distribution(level=level, probs=probs, time=float(t))


def time_average(
    initial: StateVector,
    method: str = "quadrature",
    engine: EvolutionEngine | None = None,
) -> TimeAverageDistribution:
    """Average distribution over one period of the walk.

    The start is checked as evolve checks it, a dense one on the first
    quadrature point: one on another level than the engine's, or not
    normalized, raises ValueError.  From a basis node, under either method,
    the average is node_time_average's exact table over the nodes, labelled
    krawtchouk.  Any other start averages distribution_at over L+2 equispaced
    times, the quadrature (L+1 aliases the top frequency); krawtchouk rejects it.
    """
    level = initial.level
    if method not in ("quadrature", "krawtchouk"):
        raise ValueError(f"unknown method {method!r:.60}; expected one of ('quadrature', 'krawtchouk')")
    if engine is None:
        engine = EvolutionEngine(level)
    sigma = checked_start(engine, initial)
    if sigma is not None:
        return TimeAverageDistribution(level, node_time_average(level, sigma).materialize(), "krawtchouk")
    if method == "krawtchouk":
        raise ValueError("krawtchouk requires a basis-node initial state (one nonzero amplitude)")
    m = level.L + 2
    probs = np.zeros(level.dim, dtype=np.float64)
    for j in range(m):
        probs += apply_per_bit(initial.amps, *bit_factor(j * math.pi / m, level.L + 1), square=True, check=j == 0)
    probs /= m
    return TimeAverageDistribution(level=level, probs=probs, method="quadrature")


def node_time_average(level: Level, sigma: int) -> ClassTable:
    """The exact period average from node sigma, per Hamming distance."""
    return ClassTable(level, sigma, tuple(_period_averages(level.L + 1)))


def _period_averages(m: int) -> list[float]:
    """Period average of cos(t)**(2(m-d)) * sin(t)**(2d), the occupation of a
    node at distance d from a basis start, for d = 0..m: the Beta integral
    (2(m-d)-1)!! (2d-1)!! / (2m)!!, one correctly rounded int division."""
    odd = [1]  # odd[k] = (2k-1)!!
    for k in range(1, m + 1):
        odd.append(odd[-1] * (2 * k - 1))
    even = 2**m * math.factorial(m)  # (2m)!!
    return [odd[m - d] * odd[d] / even for d in range(m + 1)]


def is_symmetric(dist: TimeAverageDistribution | Distribution | ClassTable) -> SymmetryReport:
    """Check invariance under node complement: symmetric when no node's value
    differs from its complement's by more than SYMMETRY_TOL.  Reports the
    largest deviation and the smallest node that has it."""
    if isinstance(dist, ClassTable):
        # the complement maps distance d to m - d
        dev = dist.with_table(tuple(abs(p - q) for p, q in zip(dist.table, reversed(dist.table))))
        worst = dev.argmax()
        max_dev = dev.at(worst)
    else:
        # the complement of node g is dim - 1 - g
        dev = np.abs(dist.probs - dist.probs[::-1])
        worst = int(np.argmax(dev))
        max_dev = float(dev[worst])
    return SymmetryReport(symmetric=max_dev <= SYMMETRY_TOL, max_deviation=max_dev, worst_node=worst)


def pst_check(sigma: int, tau: int, t0: float, engine: EvolutionEngine) -> float:
    """Transfer fidelity: magnitude of the overlap between the evolved one-hot
    state at sigma and the one-hot state at tau.  1 means perfect transfer.
    One entry of the class table: O(L) time and memory at any level."""
    level = engine.level
    sigma = level.validate_node(sigma)
    tau = level.validate_node(tau)
    return abs(basis_start_classes(level, sigma, t0).at(tau))


def distribution_csv(dist: TimeAverageDistribution | Distribution) -> str:
    """CSV export with canonical node strings (node field always quoted),
    written row by row: format_float on every probability."""
    rows = zip(element_strings(dist.level.L + 1), dist.probs.tolist())
    return "node,probability\n" + "".join([f'"{{{label}}}",{format_float(p)}\n' for label, p in rows])
