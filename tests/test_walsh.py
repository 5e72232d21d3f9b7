import itertools
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hyperwalk import EvolutionEngine, Level, _walsh, distribution_at, evolve
from hyperwalk._walsh import apply_per_bit
from hyperwalk.measure import probability
from hyperwalk.spectral import _FORWARD_BIT

from helpers import random_state


def _kron_power(m2: np.ndarray, m: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=np.complex128)
    for _ in range(m):
        mat = np.kron(mat, m2)
    return mat


def _random_case(m: int, seed: int, twisted: bool):
    """A random real m2 and state; twisted adds a random phase and D = diag(1, -i)."""
    rng = np.random.default_rng(seed)
    m2 = rng.standard_normal((2, 2))
    factor = (m2, complex(np.exp(1j * rng.uniform(0, 2 * np.pi))), -1j) if twisted else (m2, 1.0, 1.0)
    a = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    return factor, a


def _one_bit(m2, phase, d) -> np.ndarray:
    """phase * D m2 D, entry by entry."""
    unit = np.diag([1, d])
    return phase * unit @ m2 @ unit


def _force_threads(monkeypatch, workers: int) -> None:
    """Share every sweep and the runs among workers, the caller included, at any length."""
    monkeypatch.setattr(_walsh, "THREADS_FROM", 0)
    monkeypatch.setattr(_walsh, "_cpus", lambda: workers)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _check(m: int, seed: int, monkeypatch) -> None:
    # a random real factor, a twisted one, and the change of basis as
    # to_eigenbasis passes it: phase 1 and d = 1 by default
    cases = [_random_case(m, seed, twisted) for twisted in (False, True)]
    cases.append(((_FORWARD_BIT,), cases[0][1]))
    for case, (factor, a) in enumerate(cases):
        source = a.copy()
        one_bit = _one_bit(*factor) if len(factor) == 3 else np.array(_FORWARD_BIT)
        expected = _kron_power(one_bit, m) @ a
        got = apply_per_bit(a, *factor)
        assert np.array_equal(a, source), (m, case)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), (m, case)
        # the squares are the squares of the result, bit for bit
        squared = apply_per_bit(a, *factor, square=True)
        assert np.array_equal(a, source), (m, case)
        assert np.array_equal(_bits(squared), _bits(probability(got))), (m, case)
        # two and three workers, with uneven shares and at small m more
        # workers than chunks or runs, give the one worker's bits; a short
        # switch interval interleaves them finely
        interval = sys.getswitchinterval()
        for workers in (2, 3):
            with monkeypatch.context() as patch:
                _force_threads(patch, workers)
                sys.setswitchinterval(1e-6)
                try:
                    shared = apply_per_bit(a, *factor)
                    shared_squares = apply_per_bit(a, *factor, square=True)
                finally:
                    sys.setswitchinterval(interval)
            assert np.array_equal(a, source), (m, case, workers)
            assert np.array_equal(_bits(shared), _bits(got)), (m, case, workers)
            assert np.array_equal(_bits(shared_squares), _bits(squared)), (m, case, workers)


def _sweeps(m: int) -> list:
    """The (rows, block, cols) grid of each strided sweep at 2**m amplitudes."""
    shapes = []
    chunks = _walsh._chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_walsh, "_chunks", lambda shape, size: shapes.append(shape) or chunks(shape, size))
        apply_per_bit(np.zeros(1 << m, dtype=np.complex128), np.eye(2))
    return shapes


@pytest.mark.parametrize("m", range(1, 11))
def test_apply_per_bit_matches_the_kronecker_product(monkeypatch, m):
    # m that BLOCK_BITS does not divide leaves a highest group narrower than the block
    for seed in range(3):
        _check(m, 100 * m + seed, monkeypatch)


@pytest.mark.parametrize(
    "m, block_bits, split, sweeps",
    [
        # no strided sweep: the state is one run (m <= k)
        (4, 4, 15, []),
        # one outer group, bits 5-8 above a run of 2**5: 16 runs, which three
        # workers share unevenly
        (9, 4, 5, [(1, 16, 32)]),
        # two outer groups of three bits, 3-5 and 6-8: 64 runs
        (9, 3, 3, [(8, 8, 8), (1, 8, 64)]),
        # a narrower top group, bits 4-7 and then 8-9
        (10, 4, 4, [(4, 16, 16), (1, 4, 256)]),
        # four runs, bits 4 and 5 outside them: three workers, one with two
        (6, 4, 15, [(1, 4, 16)]),
        # the default split below 2**19 amplitudes is m - 4: runs of 2**6 here
        (10, 4, 15, [(1, 16, 64)]),
    ],
)
def test_every_shape_of_the_split(monkeypatch, m, block_bits, split, sweeps):
    monkeypatch.setattr(_walsh, "BLOCK_BITS", block_bits)
    monkeypatch.setattr(_walsh, "SPLIT_BITS", split)
    assert _sweeps(m) == sweeps
    _check(m, 11 * m + split, monkeypatch)


def _grids(m: int) -> tuple:
    """The (rows, block, cols) grid of each strided sweep at 2**m amplitudes,
    from the kernel's constants, and the most entries of one chunk."""
    b = min(_walsh.BLOCK_BITS, m)
    k = max(b, min(_walsh.SPLIT_BITS, m - 4))
    size = min(1 << m, max(_walsh.SCRATCH_BYTES // 16, 1 << b))
    shapes = []
    for low in range(k, m, _walsh.BLOCK_BITS):
        bits = min(_walsh.BLOCK_BITS, m - low)
        shapes.append((1 << (m - low - bits), 1 << bits, 1 << low))
    return shapes, size


@pytest.mark.parametrize("m", range(1, 26))
def test_the_chunks_tile_every_sweep_up_to_the_cap(m):
    # the shipped constants, without a state: the kernel tests reach m <= 17
    shapes, size = _grids(m)
    if m <= 17:
        assert _sweeps(m) == shapes
    for rows, block, cols in shapes:
        covered = 0
        for r, whole, c in _walsh._chunks((rows, block, cols), size):
            assert r.indices(rows)[:2] == (covered // cols, covered // cols + 1) and whole == slice(None)
            start, stop, _ = c.indices(cols)
            assert start == covered % cols and 0 < block * (stop - start) <= size
            covered += stop - start
        assert covered == rows * cols


@pytest.mark.parametrize("scratch_entries", [32, 40, 96, 1000])
@pytest.mark.parametrize("block_bits", [1, 3, 4, 5])
def test_chunk_boundaries_inside_a_block_row(monkeypatch, scratch_entries, block_bits):
    # buffers of a few block columns split each row of a sweep's (rows,
    # 2**bits, 2**low) grid into column chunks, ragged where the buffer's
    # columns do not divide the row; a buffer larger than a row takes one
    # row, so multi-row grids come in one chunk per row
    monkeypatch.setattr(_walsh, "SCRATCH_BYTES", 16 * scratch_entries)
    monkeypatch.setattr(_walsh, "BLOCK_BITS", block_bits)
    for m in (1, block_bits + 1, 7, 10):
        _check(m, 7 * m + scratch_entries, monkeypatch)


def test_the_workers_are_the_cpus_the_process_may_use(monkeypatch):
    # one worker under an affinity mask of one CPU, such as taskset -c 0
    if hasattr(os, "sched_getaffinity"):
        assert _walsh._cpus() == len(os.sched_getaffinity(0))
    factor, a = _random_case(12, 3, True)
    alone = apply_per_bit(a, *factor)
    monkeypatch.setattr(_walsh, "THREADS_FROM", 0)
    assert np.array_equal(_bits(apply_per_bit(a, *factor)), _bits(alone))


@pytest.mark.parametrize("workers", [2, 3])
def test_each_further_worker_adds_one_buffer(monkeypatch, workers):
    # test_dense_evolve_peaks_near_one_state's bound plus one buffer per
    # thread: at L = 16 a worker's two run buffers are one chunk buffer
    _force_threads(monkeypatch, workers)
    lv = Level(16)
    engine = EvolutionEngine(lv)
    start = random_state(lv, np.random.default_rng(5))
    evolve(engine, start, 0.3)  # warm up: first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        out = evolve(engine, start, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.amps.nbytes == start.amps.nbytes
    assert peak <= 1.25 * start.amps.nbytes + (workers - 1) * _walsh.SCRATCH_BYTES, peak / start.amps.nbytes


def _raise_in_a_product(monkeypatch, workers: int, raiser: str, product: int) -> None:
    """A matrix product raises on its call number product in the caller, or
    in the other threads; the call runs on a thread of its own, so a hang
    fails the test instead of stopping the suite."""
    _force_threads(monkeypatch, workers)
    _, a = _random_case(16, 1, False)
    calls, raised = itertools.count(), []

    def matmul(*args, **kwargs):
        if (threading.current_thread() is runner) == (raiser == "caller") and next(calls) == product:
            raise RuntimeError("that product")
        return np.matmul(*args, **kwargs)

    def call():
        try:
            apply_per_bit(a, np.eye(2), square=True)
        except RuntimeError as exc:
            raised.append(exc)

    monkeypatch.setattr(_walsh.np, "matmul", matmul)
    before = threading.active_count()
    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the call did not return"
    assert [str(exc) for exc in raised] == ["that product"]
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("raiser", ["caller", "thread"])
def test_an_error_on_any_worker_raises_in_the_caller(monkeypatch, workers, raiser):
    # the third product, in the runs
    _raise_in_a_product(monkeypatch, workers, raiser, 2)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("raiser", ["caller", "thread"])
def test_an_error_in_a_sweep_releases_the_workers_at_the_barrier(monkeypatch, workers, raiser):
    # the first product, in the strided sweep, while the others reach the barrier after it
    _raise_in_a_product(monkeypatch, workers, raiser, 0)


def test_the_kernel_keeps_openblas_threads_asleep(monkeypatch):
    # one worker, on the run shapes of L = 22: a product that wakes
    # OpenBLAS's pool spins it on the other CPUs, and CPU time over wall
    # time reads about 2 on two CPUs against 1.0 for the kernel alone.
    # The first call also checks random_state, which scales by
    # StateVector.norm: np.linalg.norm of the state would wake the pool,
    # which spins on through that call
    monkeypatch.setattr(_walsh, "_cpus", lambda: 1)
    lv = Level(20)
    engine = EvolutionEngine(lv)
    start = random_state(lv, np.random.default_rng(20))
    wall, cpu = time.perf_counter(), time.process_time()
    distribution_at(engine, start, 0.3)  # also the warm-up
    first = (time.process_time() - cpu) / (time.perf_counter() - wall)
    assert first < 1.3, first
    ratios = []
    for t in (0.7, 1.9, 2.3):  # the median: a pool woken before the test spins through the first
        wall, cpu = time.perf_counter(), time.process_time()
        distribution_at(engine, start, t)
        evolve(engine, start, t)
        ratios.append((time.process_time() - cpu) / (time.perf_counter() - wall))
    assert sorted(ratios)[1] < 1.3, ratios


def test_the_row_units_are_exact():
    # m2 = I and phase 1 leave only the diagonals D**m on either side, so
    # entry g is multiplied by exactly (-1)**popcount(g), across many chunks
    rng = np.random.default_rng(5)
    a = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    got = apply_per_bit(a, np.eye(2), 1.0, -1j)
    odd = np.bitwise_count(np.arange(len(a))) & 1
    assert np.array_equal(got, np.where(odd, -a, a))


GOOD = np.zeros(8, dtype=np.complex128)


@pytest.mark.parametrize(
    "src, m2",
    [
        (np.zeros(8, dtype=np.complex64), np.eye(2)),
        (np.zeros(8), np.eye(2)),
        (np.zeros(12, dtype=np.complex128), np.eye(2)),
        (np.zeros(16, dtype=np.complex128)[::2], np.eye(2)),
        (np.zeros((4, 4), dtype=np.complex128), np.eye(2)),
        # complex content enters only through phase and d
        (GOOD, np.eye(2) * 1j),
        (GOOD, np.eye(2, dtype=np.complex128)),
        (GOOD, ((1.0, 0.0), (0.0, 1j))),
    ],
)
def test_apply_per_bit_rejects_what_it_cannot_apply(src, m2):
    with pytest.raises(ValueError):
        apply_per_bit(src, m2)
