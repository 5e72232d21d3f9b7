"""The per-bit kernel.

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

# Bits per Kronecker block, bytes of a strided sweep's chunk buffer and the
# split bit, from distribution_at medians at L = 22 (two workers) on a 2-CPU
# Xeon with OpenBLAS: 3-bit blocks 0.20 s, 4 bits (16×16) 0.19 s, 5 bits
# 0.43 s, whose products wake OpenBLAS's threads; chunks of 256 KiB to 1 MiB
# alike, smaller or larger slower; split 13 (three strided sweeps) 0.25 s,
# 14 0.22 s, 15 0.20 s (runs of 512 KiB: two buffers fit a 2 MiB L2), 16
# 0.38 s, whose 16×16×8192 product wakes OpenBLAS's threads.
BLOCK_BITS = 4
SCRATCH_BYTES = 1 << 18
SPLIT_BITS = 15
# Amplitudes from which the CPUs share each sweep (L >= 18).  distribution_at
# medians, one worker against two: L = 16 4.80 / 5.21 ms, 17 7.90 / 6.97,
# 18 15.3 / 10.8, 19 31.4 / 22.3, 20 67.5 / 47.5; two won 5, 25, 35, 38 and
# 40 of 40.
THREADS_FROM = 1 << 19


def apply_per_bit(
    src: np.ndarray, m2, phase: complex = 1.0, d: complex = 1.0, square: bool = False
) -> np.ndarray:
    """(r2 ⊗ ... ⊗ r2) src as a new array, for the one-bit factor
    r2 = phase * D m2 D with D = diag(1, d): m2 is a real 2×2 matrix (a
    complex one is refused), phase a unit complex number and d is 1 or -1j.
    Entry [s, g] of the operator is the product over bits k of
    r2[bit k of s, bit k of g].  src is not changed.

    src must be a contiguous complex128 vector of power-of-two length 2**m.
    The lowest group of b bits (BLOCK_BITS, or m) indexes within a row, the
    bits h above it index the rows.  Around the split bit
    k = max(b, min(SPLIT_BITS, m - 4)) a run is 2**k amplitudes, and the row
    unit d**popcount(h) is the outer unit d**popcount(h >> (k - b)), constant
    over a run, times the inner unit of the bits below k, exactly:

    1. Each group of BLOCK_BITS bits from k up is one strided sweep of the
       state, in chunks of SCRATCH_BYTES: a real Kronecker block of m2 by real
       matrix products on the float64 view.  The first reads src times the
       outer units.
    2. Each run is read once into two run buffers: the inner unit, the real
       blocks of the groups from b to k, then the complex block of r2 times
       phase**(m - b), an integer power, as a real product of at most 512
       rows; then the exit units as it is written.  With square, the result
       is instead measure.probability's bits, re * re + im * im, squared in
       the buffer: the exit units only permute and negate re and im.

    No temporary grows with len(src).  From THREADS_FROM amplitudes the
    caller and a thread per further CPU share each sweep's chunks and then
    the runs, each with its own buffers, to the same bits; an error on any
    is raised in the caller.  No product wakes OpenBLAS's threads.
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
    k = max(b, min(SPLIT_BITS, m - 4))  # 16 runs or more: two run buffers, an eighth of the state
    run = 1 << k
    size = min(n, max(SCRATCH_BYTES // 16, 1 << b))
    units = np.array([1, d, d * d, d * d * d])
    # the outer unit of each run, and the inner unit of each amplitude of a run
    outer = units[np.bitwise_count(np.arange(n >> k)) & 3]
    inner_units = units[np.bitwise_count(np.arange(run) >> b) & 3]
    phase = complex(phase)
    r2 = phase * np.array([[m2[0, 0], d * m2[0, 1]], [d * m2[1, 0], d * d * m2[1, 1]]])
    block_t = (phase ** (m - b) * _kron_power(r2, b)).T
    # x + iy times p + iq on interleaved floats: (x, y) @ [[p, q], [-q, p]]
    real_t = np.kron(block_t.real, np.eye(2)) + np.kron(block_t.imag, [[0.0, 1.0], [-1.0, 0.0]])
    turns = np.stack([outer.real, outer.imag, -outer.imag, outer.real], -1).reshape(-1, 2, 2)  # as real_t
    inner = [(low, _kron_power(m2, min(BLOCK_BITS, k - low))) for low in range(b, k, BLOCK_BITS)]
    strided = [(low, _kron_power(m2, min(BLOCK_BITS, m - low))) for low in range(k, m, BLOCK_BITS)]
    result = np.empty(n) if square else np.empty_like(src)
    state = (np.empty_like(src) if square else result) if strided else src
    workers = _cpus() if n >= THREADS_FROM else 1
    barrier, errors = threading.Barrier(workers), []

    def work(w):
        try:
            scratch = np.empty(max(size, 2 * run), dtype=np.complex128)
            for low, block in strided:
                grid = state.reshape(-1, len(block), 1 << low)
                for idx in islice(_chunks(grid.shape, size), w, None, workers):
                    chunk = grid[idx]
                    buf = scratch[: chunk.size].reshape(chunk.shape)
                    if low > k:
                        np.matmul(block, chunk.view(np.float64), out=buf.view(np.float64))
                        np.copyto(chunk, buf)
                        continue
                    first = src.reshape(grid.shape)[idx]
                    if d != 1:  # the outer units, all in one product: a ufunc on a strided chunk buffers it
                        lines = (-1, chunk.shape[-1], 2)
                        turn = turns.reshape(*grid.shape[:2], 2, 2)[idx[0]].reshape(-1, 2, 2)
                        turned = buf.view(np.float64).reshape(lines)
                        np.matmul(first.view(np.float64).reshape(lines), turn, out=turned)
                        first = buf
                    np.matmul(block, first.view(np.float64), out=chunk.view(np.float64))
                barrier.wait()
            # a run's products, made once: each group from one run buffer into the other
            x, y = scratch[:run].view(np.float64), scratch[run : 2 * run].view(np.float64)
            steps = []
            for low, block in inner:
                shape = (-1, len(block), 2 << low)
                steps.append((block, x.reshape(shape), y.reshape(shape)))
                x, y = y, x
            rows, res = x.reshape(-1, 2 << b), y.reshape(-1, 2 << b)
            # at most 512 rows: OpenBLAS threads a (rows×32)@(32×32) product from 1024
            steps += [(rows[r0 : r0 + 512], real_t, res[r0 : r0 + 512]) for r0 in range(0, len(rows), 512)]
            for j in range(w, n >> k, workers):
                np.multiply(state[j * run : (j + 1) * run], inner_units, out=scratch[:run])
                for left, right, out in steps:
                    np.matmul(left, right, out=out)
                into = result[j * run : (j + 1) * run]
                if square:
                    np.multiply(y, y, out=y)
                    np.add(y[0::2], y[1::2], out=into)
                else:
                    np.multiply(y.view(np.complex128), inner_units, out=into)
                    into *= outer[j]
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
    return result


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _kron_power(m2: np.ndarray, bits: int) -> np.ndarray:
    block = np.ones((1, 1), dtype=m2.dtype)
    for _ in range(bits):
        block = np.kron(block, m2)
    return block


def _chunks(shape: tuple, size: int):
    """Indices of views covering a (rows, b, cols) grid in order, at most
    size entries each: column slices of one row, the slice of rows first."""
    rows, b, cols = shape
    step = size // b
    for r in range(rows):
        for c in range(0, cols, step):
            yield slice(r, r + 1), slice(None), slice(c, c + step)
