"""In-place per-bit 2×2 kernel and sign-vector helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported where an array is built or taken
    import numpy as np

# Bits per Kronecker block (a 32×32 block) and bytes of the chunk buffer.
# Measured on a 2-CPU Xeon with OpenBLAS at L = 20 and 22: 5-bit blocks beat
# 3 and 4 bits by 15-30%; buffers of 256 KiB to 1 MiB time the same within
# noise, 128 KiB is about 10% slower, 2 MiB and up slower again.
BLOCK_BITS = 5
SCRATCH_BYTES = 1 << 18


def apply_per_bit(a: np.ndarray, m2) -> None:
    """Replace a, in place, with (m2 ⊗ ... ⊗ m2) a: entry [s, g] of the
    operator is the product over bits k of m2[bit k of s, bit k of g].

    a must be a contiguous complex128 vector of power-of-two length.  Bits are
    taken BLOCK_BITS at a time (the last group takes what remains); each
    group's Kronecker block is applied by matrix products over chunks of one
    buffer of SCRATCH_BYTES, each chunk copied back, so no temporary grows
    with len(a).
    """
    import numpy as np
    n = a.shape[0]
    m = n.bit_length() - 1
    if a.ndim != 1 or n != 1 << m or a.dtype != np.complex128 or not a.flags.c_contiguous:
        raise ValueError("expected a contiguous complex128 vector of power-of-two length")
    m2 = np.asarray(m2, dtype=np.complex128)
    scratch = np.empty(min(n, SCRATCH_BYTES // 16), dtype=np.complex128)
    for low in range(0, m, BLOCK_BITS):
        bits = min(BLOCK_BITS, m - low)
        block = m2
        for _ in range(bits - 1):
            block = np.kron(block, m2)
        # (rows, 2**bits, 2**low): the block acts along the middle axis
        for src in _chunks(a.reshape(-1, 1 << bits, 1 << low), scratch.size):
            out = scratch[: src.size].reshape(src.shape)
            if low == 0:
                # contiguous rows of 2**bits amplitudes: one product with block.T
                np.matmul(src[..., 0], block.T, out=out[..., 0])
            else:
                np.matmul(block, src, out=out)
            src[...] = out


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
    import numpy as np
    counts = np.bitwise_count(np.arange(n, dtype=np.uint64) & np.uint64(sigma))
    return 1.0 - 2.0 * (counts & 1).astype(np.float64)


def flip_bit(amps: np.ndarray, k: int) -> np.ndarray:
    """New array with entries at indices differing in bit k swapped."""
    h = 1 << k
    return amps.reshape(-1, 2, h)[:, ::-1, :].reshape(amps.shape[0])
