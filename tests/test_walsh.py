import numpy as np
import pytest

from hyperwalk import _walsh
from hyperwalk._walsh import apply_per_bit


def _kron_power(m2: np.ndarray, m: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=np.complex128)
    for _ in range(m):
        mat = np.kron(mat, m2)
    return mat


def _random_case(m: int, seed: int):
    rng = np.random.default_rng(seed)
    m2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    return m2, a


def _check(m: int, seed: int) -> None:
    m2, a = _random_case(m, seed)
    expected = _kron_power(m2, m) @ a
    got = a.copy()
    apply_per_bit(got, m2)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), m


@pytest.mark.parametrize("m", range(1, 11))
def test_apply_per_bit_matches_the_kronecker_product(m):
    # m = 6..9 leave a last group narrower than the block
    for seed in range(3):
        _check(m, 100 * m + seed)


@pytest.mark.parametrize("scratch_entries", [32, 40, 96, 1000])
@pytest.mark.parametrize("block_bits", [1, 3, 5])
def test_chunk_boundaries_inside_a_block_row(monkeypatch, scratch_entries, block_bits):
    # buffers of a few block columns split each row of the (rows, 2**bits,
    # 2**low) grid into ragged column chunks, and the row chunks of the lowest
    # group into ragged runs of rows
    monkeypatch.setattr(_walsh, "SCRATCH_BYTES", 16 * scratch_entries)
    monkeypatch.setattr(_walsh, "BLOCK_BITS", block_bits)
    for m in (1, block_bits + 1, 7, 10):
        _check(m, 7 * m + scratch_entries)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros(8, dtype=np.complex64),
        np.zeros(8),
        np.zeros(12, dtype=np.complex128),
        np.zeros(16, dtype=np.complex128)[::2],
        np.zeros((4, 4), dtype=np.complex128),
    ],
)
def test_apply_per_bit_rejects_what_it_cannot_update_in_place(bad):
    with pytest.raises(ValueError):
        apply_per_bit(bad, np.eye(2))
