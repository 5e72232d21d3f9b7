import itertools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hyperwalk import EvolutionEngine, Level, _walsh, evolve
from hyperwalk._walsh import apply_per_bit
from hyperwalk.measure import probability

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
    """Share every pass among workers, the caller included, at any length."""
    monkeypatch.setattr(_walsh, "THREADS_FROM", 0)
    monkeypatch.setattr(_walsh, "_cpus", lambda: workers)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _check(m: int, seed: int, monkeypatch) -> None:
    for twisted in (False, True):
        factor, a = _random_case(m, seed, twisted)
        source = a.copy()
        expected = _kron_power(_one_bit(*factor), m) @ a
        got = apply_per_bit(a, *factor)
        assert np.array_equal(a, source), (m, twisted)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), (m, twisted)
        # the squares of the last pass are the squares of the result, bit for bit
        squared = apply_per_bit(a, *factor, square=probability)
        assert np.array_equal(a, source), (m, twisted)
        assert np.array_equal(_bits(squared), _bits(probability(got))), (m, twisted)
        # two and three workers, with uneven shares and at small m more
        # workers than chunks, give the one worker's bits; a short switch
        # interval interleaves them finely
        interval = sys.getswitchinterval()
        for workers in (2, 3):
            with monkeypatch.context() as patch:
                _force_threads(patch, workers)
                sys.setswitchinterval(1e-6)
                try:
                    shared = apply_per_bit(a, *factor)
                    shared_squares = apply_per_bit(a, *factor, square=probability)
                finally:
                    sys.setswitchinterval(interval)
            assert np.array_equal(a, source), (m, twisted, workers)
            assert np.array_equal(_bits(shared), _bits(got)), (m, twisted, workers)
            assert np.array_equal(_bits(shared_squares), _bits(squared)), (m, twisted, workers)


@pytest.mark.parametrize("m", range(1, 11))
def test_apply_per_bit_matches_the_kronecker_product(monkeypatch, m):
    # m that BLOCK_BITS does not divide leaves a highest group narrower than the block
    for seed in range(3):
        _check(m, 100 * m + seed, monkeypatch)


@pytest.mark.parametrize("scratch_entries", [32, 40, 96, 1000])
@pytest.mark.parametrize("block_bits", [1, 3, 4, 5])
def test_chunk_boundaries_inside_a_block_row(monkeypatch, scratch_entries, block_bits):
    # buffers of a few block columns split each row of the (rows, 2**bits,
    # 2 * 2**low) float grid of a higher group into ragged column chunks, and
    # runs of whole rows into ragged runs; the lowest group's rows come in
    # power-of-two runs
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
    # thread: each pass's chunk views are made as the workers reach them
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


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("raiser", ["caller", "thread"])
def test_an_error_on_any_worker_raises_in_the_caller(monkeypatch, workers, raiser):
    # square raises on the third chunk that the caller, or the other
    # threads, square; the call runs on a thread of its own, so a hang
    # fails the test instead of stopping the suite
    _force_threads(monkeypatch, workers)
    _, a = _random_case(16, 1, False)
    calls, raised = itertools.count(), []

    def square(z):
        if (threading.current_thread() is runner) == (raiser == "caller") and next(calls) == 2:
            raise RuntimeError("third chunk")
        return probability(z)

    def call():
        try:
            apply_per_bit(a, np.eye(2), square=square)
        except RuntimeError as exc:
            raised.append(exc)

    before = threading.active_count()
    runner = threading.Thread(target=call, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the call did not return"
    assert [str(exc) for exc in raised] == ["third chunk"]
    assert threading.active_count() == before


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
