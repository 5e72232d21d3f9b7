import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hyperwalk import EvolutionEngine, Level, StateVector, _walsh, distribution_at, evolve
from hyperwalk._walsh import apply_per_bit
from hyperwalk.measure import probability
from hyperwalk.spectral import _FORWARD_BIT, bit_factor

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


def _products(m: int) -> list:
    """The (left, right) operand shapes of every matrix product the kernel
    makes at 2**m amplitudes, each distinct pair once, in order."""
    shapes = []
    matmul = np.matmul

    def recorded(left, right, **kwargs):
        if (left.shape, right.shape) not in shapes:
            shapes.append((left.shape, right.shape))
        return matmul(left, right, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_walsh.np, "matmul", recorded)
        apply_per_bit(np.zeros(1 << m, dtype=np.complex128), np.eye(2), square=True)
    return shapes


def _tile_products(m: int) -> list:
    """The shapes of the tile pass's products: a block times 4-d views."""
    return [shapes for shapes in _products(m) if len(shapes[1]) == 4]


@pytest.mark.parametrize("m", range(1, 11))
def test_apply_per_bit_matches_the_kronecker_product(monkeypatch, m):
    # m that BLOCK_BITS does not divide leaves a highest group narrower than the block
    for seed in range(3):
        _check(m, 100 * m + seed, monkeypatch)


@pytest.mark.parametrize(
    "m, block_bits, split, plan, tiles",
    [
        # no group above the split: the state is one run and one row, in
        # tiles of one column (m <= k)
        (4, 4, 15, (4, 4, 1), []),
        # one group, bits 5-8 above runs of 2**5: 16 runs, which three
        # workers share unevenly, and 16 rows in tiles of 2 columns
        (9, 4, 5, (4, 5, 2), [((16, 16), (1, 1, 16, 4))]),
        # two groups of three bits above a split at 3: 64 rows
        (9, 3, 3, (3, 3, 1), [((8, 8), (8, 1, 8, 2)), ((8, 8), (1, 8, 8, 2))]),
        # a narrower top group, bits 4-7 and then 8-9
        (10, 4, 4, (4, 4, 1), [((16, 16), (4, 1, 16, 2)), ((4, 4), (1, 16, 4, 2))]),
        # three groups, the third from the second tile buffer into the first again
        (13, 4, 4, (4, 4, 1), [((16, 16), (32, 1, 16, 2)), ((16, 16), (2, 16, 16, 2)), ((2, 2), (1, 256, 2, 2))]),
        # four runs, bits 4 and 5 outside them: three workers, one with two
        (6, 4, 15, (4, 4, 1), [((4, 4), (1, 1, 4, 2))]),
        # the default split below 2**19 amplitudes is m - 4: runs of 2**6 here
        (10, 4, 15, (4, 6, 4), [((16, 16), (1, 1, 16, 8))]),
    ],
)
def test_every_shape_of_the_split(monkeypatch, m, block_bits, split, plan, tiles):
    monkeypatch.setattr(_walsh, "BLOCK_BITS", block_bits)
    monkeypatch.setattr(_walsh, "SPLIT_BITS", split)
    assert _walsh._plan(m) == plan
    assert _tile_products(m) == tiles
    _check(m, 11 * m + split, monkeypatch)


def _planned_products(m: int) -> list:
    """From the kernel's plan and its views alone, with buffers of one run
    and one tile: the shapes of each product of a run, then of a tile."""
    b, k, cols = _walsh._plan(m)
    run, rows = np.empty(1 << k, dtype=np.complex128), 1 << (m - k)
    tile = np.empty((rows, 2 * cols))
    shapes = []
    for low in range(b, k, _walsh.BLOCK_BITS):
        size = 1 << min(_walsh.BLOCK_BITS, k - low)
        shapes.append(((size, size), run.view(np.float64).reshape(-1, size, 2 << low).shape))
    lows = min(len(run) >> b, _walsh.ROWS)
    shapes.append((((len(run) >> b) // lows, lows, 2 << b), (2 << b, 2 << b)))
    for low in range(0, m - k, _walsh.BLOCK_BITS):
        size = 1 << min(_walsh.BLOCK_BITS, m - k - low)
        shapes.append(((size, size), _walsh._grouped(tile, low, size).shape))
    return shapes


@pytest.mark.parametrize("m", range(1, 26))
def test_the_plan_covers_every_amplitude_up_to_the_cap(m):
    # the shipped constants, without a state: the kernel tests reach m <= 17
    b, k, cols = _walsh._plan(m)
    n, run, rows = 1 << m, 1 << k, 1 << (m - k)
    # rows runs of run amplitudes, and tiles of every row by cols columns of
    # a run, next to each other: each covers every amplitude once
    assert b <= k <= m and rows * run == n
    starts = list(range(0, run, cols))
    assert run % cols == 0 and starts[-1] + cols == run and len(starts) * rows * cols == n
    # a tile is at most TILE_BYTES and a 16th of the state (two tile
    # buffers are at most an eighth), as two run buffers are from m = 8
    assert cols == 1 or rows * cols * 16 <= min(_walsh.TILE_BYTES, n)
    assert m < 8 or run <= n >> 4
    products = _planned_products(m)
    if m <= 17:
        assert set(products) == set(_products(m))
    # OpenBLAS starts its threads above these sizes
    for left, right in products:
        if left == (16, 16):
            assert right[-1] <= _walsh.COLUMNS == 2048, (left, right)
        if right == (32, 32):
            assert left[-2] <= _walsh.ROWS == 512, (left, right)
    if m == 25:  # three groups above the split, in tiles of 1024 rows
        assert [left for left, right in products[-3:]] == [(16, 16), (16, 16), (4, 4)] and rows == 1024


@pytest.mark.parametrize("tile_bytes", [16, 64, 256, 1 << 20])
@pytest.mark.parametrize("block_bits", [1, 3, 4, 5])
def test_tiles_of_every_width(monkeypatch, tile_bytes, block_bits):
    # tiles of one column and wider, up to the shipped size
    monkeypatch.setattr(_walsh, "TILE_BYTES", tile_bytes)
    monkeypatch.setattr(_walsh, "BLOCK_BITS", block_bits)
    for m in (1, block_bits + 1, 7, 10):
        _check(m, 7 * m + tile_bytes, monkeypatch)


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
    # thread: at L = 16 a worker's two run buffers, or its tile buffer and
    # the tile's units, are an eighth of the state
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
    assert peak <= (1.25 + (workers - 1) / 8) * start.amps.nbytes, peak / start.amps.nbytes


def _raise_in_a_product(monkeypatch, workers: int, raiser: str, tiles: bool) -> None:
    """The first matrix product of a run, or of a tile, raises in the
    caller, or in the other threads; the call runs on a thread of its own,
    so a hang fails the test instead of stopping the suite."""
    _force_threads(monkeypatch, workers)
    _, a = _random_case(16, 1, False)
    raised = []

    def matmul(left, right, **kwargs):
        if (threading.current_thread() is runner) == (raiser == "caller") and (right.ndim == 4) == tiles:
            raise RuntimeError("that product")
        return np.matmul(left, right, **kwargs)

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
    _raise_in_a_product(monkeypatch, workers, raiser, tiles=False)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("raiser", ["caller", "thread"])
def test_an_error_in_the_tiles_raises_in_the_caller(monkeypatch, workers, raiser):
    # every worker has finished the runs: the error comes from the second pass
    _raise_in_a_product(monkeypatch, workers, raiser, tiles=True)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_kernels_sum_is_the_squared_norm(monkeypatch, workers):
    # the first pass sums the aligned runs of NORM_RUN in index order at
    # every level, rows shorter or longer than a run: check_unit gets
    # StateVector._squared_norm bit for bit.  Amplitudes over eight decades
    # make the order show in the last bits
    _force_threads(monkeypatch, workers)
    sums, real = [], _walsh.check_unit
    monkeypatch.setattr(_walsh, "check_unit", lambda total: sums.append(total) or real(total))
    for L in range(19):
        lv = Level(L)
        rng = np.random.default_rng(L)
        start = StateVector(lv, random_state(lv, rng).amps * 10 ** rng.uniform(-4, 4, lv.dim))
        with pytest.raises(ValueError, match=re.escape(f"(norm {start.norm()!r})")):
            evolve(EvolutionEngine(lv), start, 0.7)
        assert sums[-1].hex() == start._squared_norm().hex(), L
    assert len(sums) == 19


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


def _qubit_product(qubits: np.ndarray) -> np.ndarray:
    out = np.ones(1, dtype=np.complex128)
    for qubit in qubits:
        out = np.kron(out, qubit)
    return out


def test_the_kernel_at_the_level_cap(monkeypatch):
    # m = 25: three groups above the split, of 4, 4 and 2 bits, in tiles of
    # 1024 rows, a plan no smaller state reaches.  A random product start
    # evolves to the product of its evolved qubits: the outer product of
    # the high ten bits' factor and the low 15's.  The bound is 2.3 times
    # the worst of eight seeds (3.5e-15, squares at t = -2.9)
    monkeypatch.delenv("HYPERWALK_L_MAX", raising=False)
    lv = Level(24)
    rng = np.random.default_rng(24)
    qubits = rng.standard_normal((25, 2)) + 1j * rng.standard_normal((25, 2))
    qubits /= np.linalg.norm(qubits, axis=1, keepdims=True)

    def halves(qubits):  # bit b is the factor b places from the right
        return _qubit_product(qubits[:14:-1]), _qubit_product(qubits[14::-1])

    start = StateVector(lv, np.outer(*halves(qubits)).ravel())
    engine = EvolutionEngine(lv)
    for call, power in ((evolve, 1), (distribution_at, 2)):  # evolve first: no intermediate beside it
        for t in (0.7, -2.9):
            high, low = halves(qubits @ _one_bit(*bit_factor(t)).T)
            got = call(engine, start, t)
            got = (got.amps if power == 1 else got.probs).reshape(len(high), len(low))
            err = 0.0
            for r in range(0, len(high), 64):  # 64 rows at a time: the whole product is another 512 MiB
                want = np.outer(high[r : r + 64], low)
                err = max(err, np.abs(got[r : r + 64] - (want if power == 1 else probability(want))).max())
            del got
            assert err <= 8e-15 * (np.abs(high).max() * np.abs(low).max()) ** power, (call.__name__, t)


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
