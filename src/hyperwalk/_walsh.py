"""The per-bit kernel and sign-vector helpers.

Every operator the kernel applies is the tensor power of a one-bit factor
r2 = phase * D m2 D, with m2 real and D = diag(1, d) for d in {1, -i}, so its
power over m bits is phase**m * D^⊗m m2^⊗m D^⊗m: a real operator between two
diagonals of units ±1, ±i, which multiply exactly.  The walk's factor is
R(t) = e^{it} D M(t) D with M(t) = [[cos t, sin t], [sin t, -cos t]] and
d = -i; the change of basis is real (phase 1, d = 1).
"""

from __future__ import annotations

import os
from itertools import islice

from . import _numpy as np

# Bits per Kronecker block and bytes of the chunk buffer.  Measured on a
# 2-CPU Xeon with OpenBLAS, distribution_at on a dense state (real blocks on
# the higher groups, complex on the lowest), medians at L = 22: 3-bit blocks
# 0.36 s, 4 bits (16×16) 0.33 s, 5 bits 0.34 s, 6 bits 0.41 s, 7 bits 0.51 s.
# In ten alternated pairs 4 bits beat 5 in 7 to 10, at L = 20 (0.072 against
# 0.078 s) and L = 22 (0.31 against 0.33 s).  Buffers of 256 KiB to 1 MiB time
# the same within noise; 128 KiB and less, and 2 MiB and more, are slower.
BLOCK_BITS = 4
SCRATCH_BYTES = 1 << 18
# Amplitudes from which the CPUs share each pass (L >= 21).  Kernel medians,
# one worker against two: L = 14 2.35 / 3.96 ms, 16 4.66 / 7.02, 18 16.8 / 16.7,
# 20 79.8 / 67.2, 21 178 / 160, 22 358 / 251; two won 0, 0, 5, 9, 8, 9 of 10.
THREADS_FROM = 1 << 22


def apply_per_bit(
    src: np.ndarray, m2, phase: complex = 1.0, d: complex = 1.0, square=None
) -> np.ndarray:
    """(r2 ⊗ ... ⊗ r2) src as a new array, for the one-bit factor
    r2 = phase * D m2 D with D = diag(1, d): m2 is a real 2×2 matrix (a
    complex one is refused), phase a unit complex number and d is 1 or -1j.
    Entry [s, g] of the operator is the product over bits k of
    r2[bit k of s, bit k of g].  src is not changed.

    src must be a contiguous complex128 vector of power-of-two length 2**m.
    Bits are taken BLOCK_BITS at a time; the lowest group of b bits indexes
    within a row of 2**b amplitudes, the others index the rows h.  Passes:

    1. the new array is src times the unit d**popcount(h) of its row;
    2. every higher group applies the real Kronecker block of m2, with real
       matrix products on the float64 view of the complex array;
    3. the lowest group applies the complex block of r2 times phase**(m - b),
       an integer power, by a real product, and each row's unit again.

    Each pass is a run of independent chunks of one SCRATCH_BYTES buffer, so
    no temporary grows with len(src).  From THREADS_FROM amplitudes the
    caller and a thread per further CPU share each pass, each with its own
    buffer, to the same bits; an error on any is raised in the caller.  No
    product is large enough to wake OpenBLAS's threads, which would compete.

    With square, a function from complex chunks to real arrays of their
    length that depends only on magnitudes (such as measure.probability),
    pass 3 returns square of the result instead, chunk by chunk, and never
    stores the result.  It squares each chunk before the row units, which
    only permute and negate the real and imaginary parts.
    """
    import threading  # kept off the command line's imports
    n = src.shape[0]
    m = n.bit_length() - 1
    if src.ndim != 1 or n != 1 << m or src.dtype != np.complex128 or not src.flags.c_contiguous:
        raise ValueError("expected a contiguous complex128 vector of power-of-two length")
    if np.iscomplexobj(m2):
        raise ValueError("m2 must be real: complex content enters through phase and d")
    m2 = np.asarray(m2, dtype=np.float64)
    d = complex(d)
    b = min(BLOCK_BITS, m)
    size = min(n, max(SCRATCH_BYTES // 16, 1 << b))
    # rows per chunk of passes 1 and 3: a power of two, so row r0 + i of a
    # chunk has the unit d**(popcount(r0) + popcount(i)), one of four tables;
    # at most 512, as OpenBLAS threads a (rows×32)@(32×32) product from 1024
    step = min(1 << ((size >> b).bit_length() - 1), 512)
    units = np.array([1, d, d * d, d * d * d])
    tables = [units[(np.bitwise_count(np.arange(step)) + k) & 3][:, None] for k in range(4)]
    src_rows, rows = src.reshape(-1, 1 << b), np.empty_like(src).reshape(-1, 1 << b)
    flat = rows.reshape(-1).view(np.float64)
    phase = complex(phase)
    r2 = phase * np.array([[m2[0, 0], d * m2[0, 1]], [d * m2[1, 0], d * d * m2[1, 1]]])
    block_t = (phase ** (m - b) * _kron_power(r2, b)).T
    # x + iy times p + iq on interleaved floats: (x, y) @ [[p, q], [-q, p]]
    real_t = np.kron(block_t.real, np.eye(2)) + np.kron(block_t.imag, [[0.0, 1.0], [-1.0, 0.0]])
    squares = None if square is None else np.empty(n)
    workers = _cpus() if n >= THREADS_FROM else 1
    barrier, errors = threading.Barrier(workers), []

    def work(w):
        try:
            scratch = np.empty(size, dtype=np.complex128)
            # copyto, then *=: a ufunc that broadcasts buffers the whole chunk
            for r0 in islice(range(0, len(rows), step), w, None, workers):
                np.copyto(rows[r0 : r0 + step], tables[r0.bit_count() & 3])
                rows[r0 : r0 + step] *= src_rows[r0 : r0 + step]
            for low in range(b, m, BLOCK_BITS):
                block = _kron_power(m2, min(BLOCK_BITS, m - low))
                barrier.wait()
                # (rows, len(block), 2 * 2**low) of floats: the block acts along the middle axis
                grid = flat.reshape(-1, len(block), 2 << low)
                for chunk in islice(_chunks(grid, 2 * size), w, None, workers):
                    res = scratch.view(np.float64)[: chunk.size].reshape(chunk.shape)
                    np.matmul(block, chunk, out=res)
                    chunk[...] = res
            barrier.wait()
            for r0 in islice(range(0, len(rows), step), w, None, workers):
                chunk = rows[r0 : r0 + step]
                res = scratch.view(np.float64)[: 2 * chunk.size].reshape(len(chunk), -1)
                np.matmul(chunk.view(np.float64), real_t, out=res)
                if squares is not None:
                    squares[r0 << b : (r0 + step) << b] = square(res.view(np.complex128).reshape(-1))
                else:
                    np.copyto(chunk, tables[r0.bit_count() & 3])
                    chunk *= res.view(np.complex128)
        except BaseException as exc:  # appended before the abort: errors[0] is the cause
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return rows.reshape(-1) if squares is None else squares


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _kron_power(m2: np.ndarray, bits: int) -> np.ndarray:
    block = np.ones((1, 1), dtype=m2.dtype)
    for _ in range(bits):
        block = np.kron(block, m2)
    return block


def _chunks(grid: np.ndarray, size: int):
    """Views covering grid (rows, b, cols) in order, at most size entries each:
    whole rows where a row fits, else column slices of one row."""
    rows, b, cols = grid.shape
    if b * cols <= size:
        step = size // (b * cols)
        for r in range(0, rows, step):
            yield grid[r : r + step]
    else:
        step = size // b
        for r in range(rows):
            for c in range(0, cols, step):
                yield grid[r : r + 1, :, c : c + step]


def sign_column(sigma: int, n: int) -> np.ndarray:
    """Vector of (-1)**popcount(i & sigma): one column of the unnormalized transform."""
    counts = np.bitwise_count(np.arange(n, dtype=np.uint64) & np.uint64(sigma))
    return 1.0 - 2.0 * (counts & 1).astype(np.float64)


def flip_bit(amps: np.ndarray, k: int) -> np.ndarray:
    """New array with entries at indices differing in bit k swapped."""
    h = 1 << k
    return amps.reshape(-1, 2, h)[:, ::-1, :].reshape(amps.shape[0])
