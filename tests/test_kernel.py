import concurrent.futures
import os
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from hyperwalk import EvolutionEngine, Level, StateVector, distribution_at, evolution, evolve
from hyperwalk.evolution import apply_per_bit
from hyperwalk.measure import probability
from hyperwalk.spectral import bit_factor

from helpers import random_state


def _kron_power(m2: np.ndarray, m: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=np.complex128)
    for _ in range(m):
        mat = np.kron(mat, m2)
    return mat


def _random_case(m: int, seed: int):
    """A random real (cos_t, sin_t), not on the unit circle, with the phase
    (cos_t + i sin_t)**m that _one_bit's power carries, and a random state."""
    rng = np.random.default_rng(seed)
    cos_t, sin_t = rng.standard_normal(2).tolist()
    a = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    return (cos_t, sin_t, complex(cos_t, sin_t) ** m), a


def _one_bit(cos_t, sin_t) -> np.ndarray:
    """phase * D M D with phase = cos_t + i sin_t, D = diag(1, -i) and
    M = [[cos_t, sin_t], [sin_t, -cos_t]], entry by entry."""
    unit = np.diag([1, -1j])
    return complex(cos_t, sin_t) * unit @ np.array([[cos_t, sin_t], [sin_t, -cos_t]]) @ unit


def _force_threads(monkeypatch, workers: int) -> None:
    """Share every sweep and the runs among workers, the caller included, at any length."""
    monkeypatch.setattr(evolution, "THREADS_FROM", 0)
    monkeypatch.setattr(evolution, "_cpus", lambda: workers)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


def _check(m: int, seed: int, monkeypatch) -> None:
    # two random real pairs, off the unit circle, and the walk's own at a
    # random time
    cases = [_random_case(m, seed), _random_case(m, seed + 1)]
    cases.append((bit_factor(np.random.default_rng(seed).uniform(-4, 4), m), cases[0][1]))
    for case, (factor, a) in enumerate(cases):
        source = a.copy()
        expected = _kron_power(_one_bit(*factor[:2]), m) @ a
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
        patch.setattr(evolution.np, "matmul", recorded)
        apply_per_bit(np.zeros(1 << m, dtype=np.complex128), 1.0, 0.0, 1.0, square=True)
    return shapes


def _tile_products(m: int) -> list:
    """The shapes of the tile pass's products: a block times 4-d views."""
    return [shapes for shapes in _products(m) if len(shapes[1]) == 4]


@pytest.mark.parametrize("m", range(1, 11))
def test_apply_per_bit_matches_the_kronecker_product(monkeypatch, m):
    # m that BLOCK_BITS does not divide leaves a highest group narrower than the block
    for seed in range(3):
        _check(m, 100 * m + seed, monkeypatch)


# (m, BLOCK_BITS, the budget's split, its plan, the tile pass's products)
_SPLIT_SHAPES = [
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
]


@pytest.mark.parametrize("m, block_bits, split, plan, tiles", _SPLIT_SHAPES)
def test_every_shape_of_the_split(monkeypatch, m, block_bits, split, plan, tiles):
    # the kernel takes each plan as given
    monkeypatch.setattr(evolution, "BLOCK_BITS", block_bits)
    monkeypatch.setattr(evolution, "_plan", lambda _: plan)
    assert _tile_products(m) == tiles
    _check(m, 11 * m + split, monkeypatch)


def test_the_budget_derives_every_shape_of_the_split(monkeypatch):
    # each of those plans is _plan's at a budget of two run buffers of
    # 2**split amplitudes, 16 bytes each
    for m, block_bits, split, plan, _ in _SPLIT_SHAPES:
        monkeypatch.setattr(evolution, "BLOCK_BITS", block_bits)
        monkeypatch.setattr(evolution, "BUFFER_BYTES", 32 << split)
        assert evolution._plan(m) == plan, (m, block_bits, split)


def _planned_products(m: int) -> list:
    """From the kernel's plan and its views alone, with buffers of one run
    and one tile: the shapes of each product of a run, then of a tile."""
    b, k, cols = evolution._plan(m)
    run, rows = np.empty(1 << k, dtype=np.complex128), 1 << (m - k)
    tile = np.empty((rows, 2 * cols))
    shapes = []
    for low, bits in evolution._groups(b, k):
        shapes.append(((1 << bits, 1 << bits), run.view(np.float64).reshape(-1, 1 << bits, 2 << low).shape))
    lows = min(len(run) >> b, evolution.PRODUCT_MACS >> 2 * b + 2)
    shapes.append((((len(run) >> b) // lows, lows, 2 << b), (2 << b, 2 << b)))
    for low, bits in evolution._groups(0, m - k):
        shapes.append(((1 << bits, 1 << bits), evolution._grouped(tile, low, 1 << bits).shape))
    return shapes


def _macs(left: tuple, right: tuple) -> int:
    """Multiply-adds of one product of a batched (left)@(right)."""
    return left[-2] * left[-1] * right[-1]


@pytest.mark.parametrize("m", range(26))
def test_the_plan_covers_every_amplitude_up_to_the_cap(m):
    # the shipped constants, without a state: the kernel tests reach m <= 17
    b, k, cols = evolution._plan(m)
    n, run, rows = 1 << m, 1 << k, 1 << (m - k)
    # rows runs of run amplitudes, and tiles of every row by cols columns of
    # a run, next to each other: each covers every amplitude once
    assert b <= k <= m and rows * run == n
    starts = list(range(0, run, cols))
    assert run % cols == 0 and starts[-1] + cols == run and len(starts) * rows * cols == n
    # with square, pass 2's items are the pairs (2u+1, 2u) of tile indices:
    # each tile falls in exactly one, and the odd tiles' states exactly fill
    # the float result's pages, n / 2 complex values (none at m = 0)
    tiles = len(starts)
    pairs = [[t for t in (2 * u + 1, 2 * u) if t < tiles] for u in range((tiles + 1) // 2)]
    assert sorted(t for pair in pairs for t in pair) == list(range(tiles))
    odd = [t for pair in pairs for t in pair if t % 2]
    assert len(odd) * rows * cols == n // 2
    # a tile is at most BUFFER_BYTES and a 16th of the state (two tile
    # buffers are at most an eighth), as two run buffers are from m = 8
    assert cols == 1 or rows * cols * 16 <= min(evolution.BUFFER_BYTES, n)
    assert 32 * run <= evolution.BUFFER_BYTES and (m < 8 or run <= n >> 4)
    products = _planned_products(m)
    if m <= 17:
        assert set(products) == set(_products(m))
    # OpenBLAS threads a product of 2**20 multiply-adds: every product of a
    # run, the 8×8 group of bits 12-14 among them, and of a tile stays below
    for left, right in products:
        assert _macs(left, right) <= evolution.PRODUCT_MACS == 1 << 19, (left, right)
    if m == 25:  # three groups above the split, in tiles of 1024 rows
        assert [left for left, right in products[-3:]] == [(16, 16), (16, 16), (4, 4)] and rows == 1024


def test_the_shipped_plan():
    # (b, k, cols) at m = 0-25: a budget edit that moves a shape fails here
    assert [evolution._plan(m) for m in range(26)] == [
        (0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 4, 1), (4, 4, 1),
        (4, 5, 2), (4, 6, 4), (4, 7, 8), (4, 8, 16), (4, 9, 32), (4, 10, 64), (4, 11, 128), (4, 12, 256),
        (4, 13, 512), (4, 14, 1024), (4, 15, 1024), (4, 15, 1024), (4, 15, 1024),
        (4, 15, 512), (4, 15, 256), (4, 15, 128), (4, 15, 64),
    ]


@pytest.mark.parametrize("block_bits", [1, 2, 3, 5, 6])
def test_the_caps_follow_the_block(monkeypatch, block_bits):
    # a tile's columns, the lowest block's rows and the split shrink or grow
    # with the block: every product, the run's inner groups included, stays
    # in the budget, and up to m = 17 the plan's shapes are the kernel's.
    # At 5 bits the split drops to 14 from m = 19, where a split at 15 would
    # make the group of bits 10-14 (32×32)@(32×2048), 2**21
    monkeypatch.setattr(evolution, "BLOCK_BITS", block_bits)
    for m in range(26):
        products = _planned_products(m)
        if m <= 17:
            assert set(products) == set(_products(m)), m
        for left, right in products:
            assert _macs(left, right) <= evolution.PRODUCT_MACS, (m, left, right)
    assert evolution._plan(25)[1] == (14 if block_bits == 5 else 15)


@pytest.mark.parametrize(
    "m, b, k, cols",
    # the plans of tiles of 16, 64 and 256 bytes and 1 MiB at 1-, 3-, 4- and
    # 5-bit blocks, at m = 1, the block plus one, 7 and 10
    [
        (1, 1, 1, 1), (2, 1, 1, 1), (7, 1, 3, 1), (10, 1, 6, 1), (10, 1, 6, 4),
        (4, 3, 3, 1), (7, 3, 3, 1), (10, 3, 6, 1), (10, 3, 6, 4),
        (5, 4, 4, 1), (7, 4, 4, 1), (10, 4, 6, 1), (10, 4, 6, 4),
        (6, 5, 5, 1), (6, 5, 5, 2), (7, 5, 5, 1), (7, 5, 5, 2), (10, 5, 6, 1), (10, 5, 6, 4),
    ],
)
def test_tiles_of_every_width(monkeypatch, m, b, k, cols):
    # tiles of one column and wider, up to the shipped size, in blocks of b bits
    monkeypatch.setattr(evolution, "BLOCK_BITS", b)
    monkeypatch.setattr(evolution, "_plan", lambda _: (b, k, cols))
    _check(m, 7 * m + cols, monkeypatch)


class _FurtherSharesFirst:
    """A ThreadPoolExecutor whose submit runs each further worker's share
    to completion at once, before the caller's own share."""

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = concurrent.futures.Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("workers", [2, 3])
def test_the_squares_hold_when_further_workers_run_first(monkeypatch, workers):
    # with square the squares of tiles 2u and 2u+1 land on tile 2u+1's
    # state, which only their pair's worker reads, and reads first: in a
    # schedule where the further workers' pairs run before the caller's,
    # every tile still reads its own amplitudes
    _force_threads(monkeypatch, workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _FurtherSharesFirst)
    for m in range(2, 19):
        factor, a = _random_case(m, 31 * m + workers)
        squared = apply_per_bit(a, *factor, square=True)
        assert np.array_equal(_bits(squared), _bits(probability(apply_per_bit(a, *factor)))), (m, workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("square", [False, True])
def test_a_refused_dense_start_runs_no_tile(monkeypatch, workers, square):
    # the caller checks the first pass's sums before any worker takes a
    # pair: a refused start costs the runs alone, on every worker count
    _force_threads(monkeypatch, workers)
    grouped, calls = evolution._grouped, []
    monkeypatch.setattr(evolution, "_grouped", lambda *args: calls.append(args[1:]) or grouped(*args))
    lv = Level(11)  # m = 12: 16 tiles of one group above the split
    start = random_state(lv, np.random.default_rng(workers))
    call = distribution_at if square else evolve
    with pytest.raises(ValueError, match="not normalized"):
        call(EvolutionEngine(lv), StateVector(lv, 2 * start.amps), 0.7)
    assert calls == []
    call(EvolutionEngine(lv), start, 0.7)  # the spy sees an accepted start's tiles
    assert len(calls) == 2 * 16


def test_the_workers_are_the_cpus_the_process_may_use(monkeypatch):
    # one worker under an affinity mask of one CPU, such as taskset -c 0
    if hasattr(os, "sched_getaffinity"):
        assert evolution._cpus() == len(os.sched_getaffinity(0))
    factor, a = _random_case(12, 3)
    alone = apply_per_bit(a, *factor)
    monkeypatch.setattr(evolution, "THREADS_FROM", 0)
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
    _, a = _random_case(16, 1)
    raised = []

    def matmul(left, right, **kwargs):
        if (threading.current_thread() is runner) == (raiser == "caller") and (right.ndim == 4) == tiles:
            raise RuntimeError("that product")
        return np.matmul(left, right, **kwargs)

    def call():
        try:
            apply_per_bit(a, 1.0, 0.0, 1.0, square=True)
        except RuntimeError as exc:
            raised.append(exc)

    monkeypatch.setattr(evolution.np, "matmul", matmul)
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
    sums, real = [], evolution.check_unit
    monkeypatch.setattr(evolution, "check_unit", lambda total: sums.append(total) or real(total))
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
    monkeypatch.setattr(evolution, "_cpus", lambda: 1)
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


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "cos_t, sin_t, exact",
    [
        # R(0) = I
        (1.0, 0.0, lambda a: a),
        # R(pi/2) = X, whose power reverses the index: the transfer to the complement
        (0.0, 1.0, lambda a: a[::-1].copy()),
    ],
    ids=["identity", "full-flip"],
)
def test_the_exact_factors_are_exact(monkeypatch, workers, cos_t, sin_t, exact):
    # every unit, block and exit unit of both passes must then multiply
    # exactly, on every plan from 2 to 2**19 amplitudes
    _force_threads(monkeypatch, workers)
    for m in range(1, 20):
        _, a = _random_case(m, m)
        assert np.array_equal(_bits(apply_per_bit(a, cos_t, sin_t, complex(cos_t, sin_t) ** m)), _bits(exact(a))), m


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
    for call, power in ((evolve, 1), (distribution_at, 2)):  # each allocates one state, 512 MiB
        for t in (0.7, -2.9):
            high, low = halves(qubits @ _one_bit(*bit_factor(t, 25)[:2]).T)
            got = call(engine, start, t)
            got = (got.amps if power == 1 else got.probs).reshape(len(high), len(low))
            err = 0.0
            for r in range(0, len(high), 64):  # 64 rows at a time: the whole product is another 512 MiB
                want = np.outer(high[r : r + 64], low)
                err = max(err, np.abs(got[r : r + 64] - (want if power == 1 else probability(want))).max())
            del got
            assert err <= 8e-15 * (np.abs(high).max() * np.abs(low).max()) ** power, (call.__name__, t)


@pytest.mark.parametrize(
    "src",
    [
        np.zeros(8, dtype=np.complex64),
        np.zeros(8),
        np.zeros(12, dtype=np.complex128),
        np.zeros(16, dtype=np.complex128)[::2],
        np.zeros((4, 4), dtype=np.complex128),
    ],
)
def test_apply_per_bit_rejects_what_it_cannot_apply(src):
    with pytest.raises(ValueError):
        apply_per_bit(src, 1.0, 0.0, 1.0)
