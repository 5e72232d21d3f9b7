"""The per-bit kernel.

Every operator the kernel applies is the tensor power of a one-bit factor
r2 = phase * D m2 D, with m2 real and D = diag(1, d) for d in {1, -i}, so its
power over m bits is phase**m * D^⊗m m2^⊗m D^⊗m: a real operator between two
diagonals of units ±1, ±i, which multiply exactly.  The walk's factor is
R(t) = e^{it} D M(t) D with M(t) = [[cos t, sin t], [sin t, -cos t]] and
d = -i; the change of basis is real (phase 1, d = 1).
"""

from __future__ import annotations

import functools
import os

from . import _numpy as np
from .operators import NORM_RUN, check_unit

# Bits per Kronecker block, the split bit and bytes per tile, from medians
# of the squares at L = 22 (two workers) on a 2-CPU Xeon with OpenBLAS:
# 4-bit blocks (16×16) 0.126 s, 3 bits alike, 5 bits 0.359 s, whose products
# wake OpenBLAS's threads; split 13 0.195 s, 14 0.152 s, 15 0.147 s (runs of
# 512 KiB: two buffers fit a 2 MiB L2), 16 0.265 s, whose 16×16×8192
# product wakes OpenBLAS's threads; tiles of 512 KiB 0.146 s, 1 MiB 0.140 s.
BLOCK_BITS = 4
SPLIT_BITS = 15
TILE_BYTES = 1 << 20
# Float columns of a product of a 16-row block, and rows of one with the
# 32×32 lowest block: OpenBLAS threads (16×16)@(16×4096) and (1024×32)@(32×32).
COLUMNS = 2048
ROWS = 512
# Amplitudes from which the CPUs share each pass (L >= 18).  distribution_at
# medians, one worker against two: L = 16 4.80 / 5.21 ms, 17 7.90 / 6.97,
# 18 15.3 / 10.8, 19 31.4 / 22.3, 20 67.5 / 47.5; two won 5, 25, 35, 38 and
# 40 of 40.
THREADS_FROM = 1 << 19


def apply_per_bit(
    src: np.ndarray, m2, phase: complex = 1.0, d: complex = 1.0, square: bool = False, check: bool = False,
) -> np.ndarray:
    """(r2 ⊗ ... ⊗ r2) src as a new array, for the one-bit factor
    r2 = phase * D m2 D with D = diag(1, d): m2 is a real 2×2 matrix (a
    complex one is refused), phase a unit complex number and d is 1 or -1j.
    Entry [s, g] of the operator is the product over bits k of
    r2[bit k of s, bit k of g].  src is not changed.

    src must be a contiguous complex128 vector of power-of-two length 2**m.
    The lowest b bits index within a row, and a run is the 2**k amplitudes
    below the split bit k (_plan).  The unit d**popcount(g >> b) of
    amplitude g is its run's outer unit, of the bits from k up, times its
    inner unit, of the bits b to k, exactly.  Two passes, on two buffers:

    1. Each run of src is read once: its inner units, the real Kronecker
       blocks of m2 on each group of BLOCK_BITS bits from b to k, as real
       products on the float64 view, then r2's block times phase**(m - b),
       an integer power, and the outer unit: one of four real 32×32
       matrices.  It goes to the state, with its inner exit units unless
       square.  With check, that read sums |src|² in the aligned runs of
       NORM_RUN that StateVector._squared_norm sums, at every level, and
       pass 2 starts with operators.check_unit of their sum, which may raise.
    2. Each tile, every row of the state by cols columns, gets the blocks
       of the groups from k up and goes to the result with its outer exit
       units, or with square as operators.probability's bits,
       re * re + im * im, to which the exit units are blind.

    The state is the result, or with square a new array like src; no other
    temporary grows with len(src).  From THREADS_FROM
    amplitudes the caller and a thread per further CPU share each pass, to
    the same bits.  No product wakes OpenBLAS's threads.
    """
    n = src.shape[0]
    m = n.bit_length() - 1
    if src.ndim != 1 or n != 1 << m or src.dtype != np.complex128 or not src.flags.c_contiguous:
        raise ValueError("expected a contiguous complex128 vector of power-of-two length")
    if np.iscomplexobj(m2):
        raise ValueError("m2 must be real: complex content enters through phase and d")
    m2 = np.asarray(m2, dtype=np.float64)
    d = complex(d)
    b, k, cols = _plan(m)
    run, rows = 1 << k, n >> k
    units = np.array([1, d, d * d, d * d * d])
    inner_units = units[np.bitwise_count(np.arange(run) >> b) & 3]
    phase = complex(phase)
    r2 = phase * np.array([[m2[0, 0], d * m2[0, 1]], [d * m2[1, 0], d * d * m2[1, 1]]])
    block_t = (phase ** (m - b) * _kron_power(r2, b)).T
    # x + iy times p + iq on interleaved floats: (x, y) @ [[p, q], [-q, p]]
    lowest = [np.kron(z.real, np.eye(2)) + np.kron(z.imag, [[0.0, 1.0], [-1.0, 0.0]]) for z in units[:, None, None] * block_t]
    inner = [(low, _kron_power(m2, min(BLOCK_BITS, k - low))) for low in range(b, k, BLOCK_BITS)]
    outer = [(low, _kron_power(m2, min(BLOCK_BITS, m - k - low))) for low in range(0, m - k, BLOCK_BITS)]
    result = np.empty(n) if square else np.empty_like(src)
    state = np.empty_like(src) if square else result
    sums = np.empty(max(1, n // NORM_RUN))
    lows = (-1, min(run >> b, ROWS), 2 << b)  # the lowest block's products

    def runs(w, workers):
        bufs = np.empty((2, 2 * run))  # as floats
        for j in range(w, rows, workers):
            into = state[j * run : (j + 1) * run]
            np.multiply(src[j * run : (j + 1) * run], inner_units, out=bufs[0].view(np.complex128))
            if check and j * run % NORM_RUN == 0:  # a shorter row sums the run it starts
                for i in range(j * run, (j + 1) * run, NORM_RUN):
                    sums[i // NORM_RUN] = np.vdot(src[i : i + NORM_RUN], src[i : i + NORM_RUN]).real
            for i, (low, block) in enumerate(inner):
                shape = (-1, len(block), 2 << low)
                np.matmul(block, bufs[i & 1].reshape(shape), out=bufs[~i & 1].reshape(shape))
            x, y = bufs[len(inner) & 1], bufs[~len(inner) & 1]
            np.matmul(x.reshape(lows), lowest[j.bit_count() & 3], out=(into.view(np.float64) if square else y).reshape(lows))
            if not square:
                np.multiply(y.view(np.complex128), inner_units, out=into)

    def tiles(w, workers):
        if w == 0 and check:
            check_unit(sum(sums.tolist()))
        bufs = np.empty((min(2, len(outer)), rows, 2 * cols))
        exits = None if square else np.repeat(units[np.bitwise_count(np.arange(rows)) & 3, None], cols, axis=1)
        grid = state.view(np.float64).reshape(rows, 2 * run)
        for c in range(w * cols, run, workers * cols):
            tile = grid[:, 2 * c : 2 * (c + cols)]
            for i, (low, block) in enumerate(outer):
                np.matmul(block, _grouped(tile, low, len(block)), out=_grouped(bufs[i & 1], low, len(block)))
                tile = bufs[i & 1]
            into = result.reshape(rows, run)[:, c : c + cols]
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
        for work in runs, tiles:
            others = [pool.submit(work, w, workers) for w in range(1, workers)]
            work(0, workers)
            for other in others:
                other.result()
    return result


def _plan(m: int) -> tuple[int, int, int]:
    """(b, k, cols) at 2**m amplitudes: the lowest bits, the split bit (16
    runs or more) and a tile's columns, to TILE_BYTES, COLUMNS floats and a
    16th of the state at most."""
    b = min(BLOCK_BITS, m)
    k = max(b, min(SPLIT_BITS, m - 4))
    return b, k, max(1, min(1 << k >> 4, TILE_BYTES // 16 >> (m - k), COLUMNS // 2))


def _grouped(a: np.ndarray, low: int, size: int) -> np.ndarray:
    """A tile's (rows, floats) as (batches, 2**low, size, floats): the
    products of a block of size rows on the row bits from low up."""
    rows, width = a.shape
    return a.reshape(rows // (size << low), size, 1 << low, width).transpose(0, 2, 1, 3)


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _kron_power(m2: np.ndarray, bits: int) -> np.ndarray:
    return functools.reduce(np.kron, [m2] * bits, np.ones((1, 1)))
