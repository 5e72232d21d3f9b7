"""Time evolution of the walk.

The generator has even integer eigenvalues, so the evolution unitary is
exactly pi-periodic in time.  It is the tensor power of the one-bit factor
R(t) = [[a0, a1], [a1, a0]] = e^{it} D M(t) D, with the real reflection
M(t) = [[cos t, sin t], [sin t, -cos t]] and D = diag(1, -i)
(``spectral.bit_factor``, which also refuses a time it cannot evaluate
before anything is allocated).  The per-bit kernel
(``_walsh.apply_per_bit``) applies it from the state into a new array in
O(dim * (L+1)) per call; for ``distribution_at`` it squares each amplitude
instead of storing it.  A one-hot start (a basis node times a unit phase)
is its distance-class table gathered over the nodes instead
(``spectral.basis_start_classes``), in O(dim); ``distribution_at`` squares
that table's L+2 entries before the gather.  The literal-definition
oracles it is tested against live in the test suite.
"""

from __future__ import annotations

from . import _numpy as np
from ._walsh import apply_per_bit
from .operators import NORM_RUN, StateVector, check_unit, probability
from .spectral import basis_start_classes, bit_factor
from .subsets import Level

ONE_HOT_PROBE = 16  # leading amplitudes one_hot_node reads before it counts them all


class EvolutionEngine:
    """Handle binding the evolution to a fixed level.

    Immutable after construction; concurrent evolve calls on one engine are
    safe because every call works on its own buffers and its own threads.
    """

    def __init__(self, level: Level):
        self.level = level

    def __repr__(self) -> str:
        return f"EvolutionEngine(level=Level({self.level.L}))"


def evolve(engine: EvolutionEngine, initial: StateVector, t: float) -> StateVector:
    """State at time t from the given initial state.

    The input must be on the engine's level and normalized; an unnormalized
    start is refused, so a caller scales it first.  Output norm is preserved
    to machine precision.  A time that bit_factor refuses is refused before
    the start is checked.
    """
    return StateVector(engine.level, _evolve(engine, initial, t))


def _evolve(engine: EvolutionEngine, initial: StateVector, t: float, square: bool = False) -> np.ndarray:
    """evolve's amplitudes, or with square their probabilities: the kernel's
    (dense), or per distance from a node."""
    factor = bit_factor(t)
    sigma = checked_start(engine, initial)
    if sigma is None:
        return apply_per_bit(initial.amps, *factor, square=square, check=True)
    # a one-hot start stays a product state: its table times the start
    # amplitude, in numpy's complex product, gathered over the nodes
    classes = basis_start_classes(initial.level, sigma, t)
    table = np.multiply(classes.table, initial.amps[sigma])
    table = probability(table) if square else table
    return classes.with_table(tuple(table.tolist())).materialize()


def checked_start(engine: EvolutionEngine, initial: StateVector) -> int | None:
    """The node of a one-hot start (one_hot_node), else None, after refusing
    with ValueError a start on another level than the engine's, then a
    one-hot start whose node's run of NORM_RUN, which holds all of
    _squared_norm's sum, fails check_unit.  The kernel checks a dense one."""
    if engine.level != initial.level:
        raise ValueError(
            f"engine level L={engine.level.L} does not match state level L={initial.level.L}"
        )
    sigma = one_hot_node(initial.amps)
    if sigma is not None:
        run = initial.amps[sigma - sigma % NORM_RUN :][:NORM_RUN]
        check_unit(np.vdot(run, run).real)
    return sigma


def one_hot_node(amps: np.ndarray) -> int | None:
    """The node of a state with exactly one nonzero amplitude, else None.

    Two nonzero amplitudes among the first ONE_HOT_PROBE settle a dense state
    at once; any other state pays one comparison pass into a mask of one byte
    per amplitude, which is then counted and, for a one-hot state, searched
    up to its node.
    """
    if np.count_nonzero(amps[:ONE_HOT_PROBE]) > 1:
        return None
    nonzero = amps != 0
    if np.count_nonzero(nonzero) != 1:
        return None
    return int(np.argmax(nonzero))
