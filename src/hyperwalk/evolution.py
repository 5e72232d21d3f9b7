"""Time evolution of the walk, and the per-bit kernel that applies it.

The generator has even integer eigenvalues, so the evolution unitary is
exactly pi-periodic in time.  It is e^{imt} (D M(t) D)^⊗m over the m = L+1
bits, with D = diag(1, -i) and the real reflection
M(t) = [[cos t, sin t], [sin t, -cos t]]: all the triple
(cos t, sin t, e^{imt}) of ``spectral.bit_factor``, which also refuses a
time it cannot evaluate before anything is allocated.  The per-bit kernel,
``apply_per_bit``, takes that triple and applies this unitary and nothing
else, from the state into a new array in O(dim * (L+1)) per call; for
``distribution_at`` it squares each amplitude instead of storing it.  A
one-hot start (a basis node times a unit phase) is its distance-class
table, built from the same triple, gathered over the nodes instead
(``spectral.basis_start_classes``), in O(dim); ``distribution_at`` squares
that table's L+2 entries before the gather.  The literal-definition oracles
it is tested against live in the test suite.
"""

from __future__ import annotations

import functools
import os

from . import _numpy as np
from .spectral import NORM_RUN, StateVector, basis_start_classes, bit_factor, check_unit, probability
from .subsets import Level

ONE_HOT_PROBE = 16  # leading amplitudes one_hot_node reads before it counts them all

# Bits per Kronecker block, and bytes of a worker's two run buffers or of a
# tile, from medians of the squares at L = 22 (two workers) on a 2-CPU Xeon
# with OpenBLAS: 4-bit blocks (16×16) 0.126 s, 3 bits alike, 5 bits 0.359 s,
# whose products wake OpenBLAS's threads; runs of 2**13 0.195 s, 2**14 0.152 s,
# 2**15 0.147 s (two buffers of 512 KiB fit a 2 MiB L2), 2**16 0.265 s, whose
# 16×16×8192 product wakes them; tiles of 512 KiB 0.146 s, 1 MiB 0.140 s.
BLOCK_BITS = 4
BUFFER_BYTES = 1 << 20
# Multiply-adds of one real product at most, which caps the split, a tile's
# columns and the lowest block's rows: OpenBLAS threads 2**20, (16×16)@(16×4096)
# and (1024×32)@(32×32), and not (16×16)@(16×2048) or (512×32)@(32×32).
PRODUCT_MACS = 1 << 19
# Amplitudes from which the CPUs share each pass (L >= 18).  distribution_at
# medians, one worker against two: L = 16 4.80 / 5.21 ms, 17 7.90 / 6.97,
# 18 15.3 / 10.8, 19 31.4 / 22.3, 20 67.5 / 47.5; two won 5, 25, 35, 38 and
# 40 of 40.
THREADS_FROM = 1 << 19


class EvolutionEngine:
    """Handle binding the evolution to a fixed level.

    Immutable after construction; concurrent evolve calls on one engine are
    safe because every call works on its own buffers and its own threads.
    """

    def __init__(self, level: Level):
        self.level = level


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
    factor = bit_factor(t, engine.level.L + 1)
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


def apply_per_bit(src: np.ndarray, cos_t: float, sin_t: float, phase: complex, square: bool = False, check: bool = False) -> np.ndarray:
    """phase * (r2 ⊗ ... ⊗ r2) src as a new array, for r2 = D m2 D with
    m2 = [[cos_t, sin_t], [sin_t, -cos_t]] and D = diag(1, d), d = -i: the
    walk's evolution for spectral.bit_factor's triple (cos t, sin t,
    e^{imt}), and nothing else.  Entry [s, g] of the operator is phase times
    the product over bits k of r2[bit k of s, bit k of g].  src is not
    changed.

    src must be a contiguous complex128 vector of power-of-two length 2**m.
    The lowest b bits index within a row; a run is the 2**k amplitudes below
    the split bit k (_plan, from BUFFER_BYTES and PRODUCT_MACS).  The unit
    d**popcount(g >> b) of amplitude g is its run's outer unit, of the bits
    from k up, times its inner unit, of the bits b to k, exactly.  Two passes:

    1. Each run of src is read once: its inner units, the real Kronecker
       blocks of m2 on each group of BLOCK_BITS bits from b to k, as real
       products on the float64 view, then r2's block times phase and the
       outer unit: one of four real 32×32 matrices.  It goes to the state,
       with its inner exit units unless square.  With check, that read
       sums |src|² in the aligned runs of NORM_RUN that
       StateVector._squared_norm sums, at every level; before any tile,
       spectral.check_unit of their sum may raise.
    2. Each tile, every row of the state by cols columns, gets the blocks
       of the groups from k up and goes to the result with its outer exit
       units, or with square as spectral.probability's bits,
       re * re + im * im, to which the exit units are blind.

    The state's tiles are views of the result, or with square the odd
    tile 2u+1 of each row is the float result's own pages under the
    squares of tiles 2u and 2u+1, read as complex, and the even tile 2u
    is in a new array of half a state: one state in all.  Pass 2 takes
    the tiles in pairs, the odd tile first, so each tile reads only its
    own state and writes only over its pair's.  No other temporary grows
    with len(src).  From THREADS_FROM amplitudes the caller and a thread
    per further CPU share each pass, by the same stride, to the same
    bits.  No product exceeds PRODUCT_MACS, which OpenBLAS runs unthreaded.
    """
    n = src.shape[0]
    m = n.bit_length() - 1
    if src.ndim != 1 or n != 1 << m or src.dtype != np.complex128 or not src.flags.c_contiguous:
        raise ValueError("expected a contiguous complex128 vector of power-of-two length")
    m2 = np.array([[cos_t, sin_t], [sin_t, -cos_t]], dtype=np.float64)
    d = -1j
    b, k, cols = _plan(m)
    run, rows = 1 << k, n >> k
    units = np.array([1, d, d * d, d * d * d])
    inner_units = units[np.bitwise_count(np.arange(run) >> b) & 3]
    r2 = np.array([[m2[0, 0], d * m2[0, 1]], [d * m2[1, 0], d * d * m2[1, 1]]])
    block_t = (phase * _kron_power(r2, b)).T
    # x + iy times p + iq on interleaved floats: (x, y) @ [[p, q], [-q, p]]
    lowest = [np.kron(z.real, np.eye(2)) + np.kron(z.imag, [[0.0, 1.0], [-1.0, 0.0]]) for z in units[:, None, None] * block_t]
    inner = [(low, _kron_power(m2, bits)) for low, bits in _groups(b, k)]
    outer = [(low, _kron_power(m2, bits)) for low, bits in _groups(0, m - k)]
    result = np.empty(n) if square else np.empty_like(src)
    tiled = result.reshape(rows, -1, cols)  # each tile's amplitudes, or with square its squares
    odd = result[: n - n % 2].view(np.complex128).reshape(rows, -1, cols) if square else tiled[:, 1::2]  # none at m = 0
    even = np.empty((rows, tiled.shape[1] - odd.shape[1], cols), np.complex128) if square else tiled[:, 0::2]
    sums = np.empty(max(1, n // NORM_RUN))
    lows = (-1, min(run >> b, PRODUCT_MACS >> 2 * b + 2), 2 << b)  # the lowest block's products

    def runs(js):
        bufs = np.empty((2, 2 * run))  # as floats
        for j in js:
            np.multiply(src[j * run : (j + 1) * run], inner_units, out=bufs[0].view(np.complex128))
            if check and j * run % NORM_RUN == 0:  # a shorter row sums the run it starts
                for i in range(j * run, (j + 1) * run, NORM_RUN):
                    sums[i // NORM_RUN] = np.vdot(src[i : i + NORM_RUN], src[i : i + NORM_RUN]).real
            for i, (low, block) in enumerate(inner):
                shape = (-1, len(block), 2 << low)
                np.matmul(block, bufs[i & 1].reshape(shape), out=bufs[~i & 1].reshape(shape))
            x, y = bufs[len(inner) & 1], bufs[~len(inner) & 1]
            np.matmul(x.reshape(lows), lowest[j.bit_count() & 3], out=y.reshape(lows))
            y = y.view(np.complex128)
            if square:
                odd[j], even[j] = y.reshape(-1, cols)[1::2], y.reshape(-1, cols)[0::2]
            else:
                np.multiply(y, inner_units, out=result[j * run : (j + 1) * run])

    def pairs(us):
        bufs = np.empty((min(2, len(outer)), rows, 2 * cols))
        exits = None if square else np.repeat(units[np.bitwise_count(np.arange(rows)) & 3, None], cols, axis=1)
        for t in (t for u in us for t in (2 * u + 1, 2 * u) if t < tiled.shape[1]):  # the odd tile first: both squares land on its state
            tile = (odd if t & 1 else even)[:, t >> 1].view(np.float64)
            for i, (low, block) in enumerate(outer):
                np.matmul(block, _grouped(tile, low, len(block)), out=_grouped(bufs[i & 1], low, len(block)))
                tile = bufs[i & 1]
            into = tiled[:, t]
            if square:
                np.multiply(tile, tile, out=tile)
                np.add(tile[:, 0::2], tile[:, 1::2], out=into)
            else:  # the outer exit units, in the buffer: broadcast or strided, a ufunc buffers
                tile = tile.view(np.complex128)
                np.multiply(tile, exits, out=tile)
                np.copyto(into, tile)

    from concurrent.futures import ThreadPoolExecutor  # kept off the command line's imports

    workers = _cpus() if n >= THREADS_FROM else 1
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # an error waits for every worker
        for work, items in (runs, rows), (pairs, even.shape[1]):
            others = [pool.submit(work, range(w, items, workers)) for w in range(1, workers)]
            work(range(0, items, workers))
            for other in others:
                other.result()
            if check and work is runs:
                check_unit(sum(sums.tolist()))
    return result


def _plan(m: int) -> tuple[int, int, int]:
    """(b, k, cols) at 2**m amplitudes: the lowest bits; the split bit, for 16
    runs or more whose two buffers fit BUFFER_BYTES, lowered until each inner
    group's product is within PRODUCT_MACS; a tile's columns, to BUFFER_BYTES,
    a 16th of the state and PRODUCT_MACS in a block's product."""
    b = min(BLOCK_BITS, m)
    k = max(b, min((BUFFER_BYTES // 32).bit_length() - 1, m - 4))
    while any(2 << low + 2 * bits > PRODUCT_MACS for low, bits in _groups(b, k)):  # (2**bits)² · 2**(low+1)
        k -= 1
    return b, k, max(1, min(1 << k >> 4, BUFFER_BYTES // 16 >> (m - k), PRODUCT_MACS >> 2 * BLOCK_BITS + 1))


def _groups(low: int, high: int) -> list[tuple[int, int]]:
    return [(i, min(BLOCK_BITS, high - i)) for i in range(low, high, BLOCK_BITS)]


def _grouped(a: np.ndarray, low: int, size: int) -> np.ndarray:
    """A tile's (rows, floats) as (batches, 2**low, size, floats): the
    products of a block of size rows on the row bits from low up."""
    rows, width = a.shape
    return a.reshape(rows // (size << low), size, 1 << low, width).transpose(0, 2, 1, 3)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _kron_power(m2: np.ndarray, bits: int) -> np.ndarray:
    return functools.reduce(np.kron, [m2] * bits, np.ones((1, 1)))
