import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import hyperwalk
from hyperwalk import evolution
from hyperwalk import (
    EvolutionEngine,
    Level,
    StateVector,
    apply_laplacian,
    basis_state,
    distribution_at,
    evolve,
    pst_check,
    time_average,
    vacuum_state,
)
from hyperwalk.spectral import NORM_TOL, basis_start_classes, from_eigenbasis, to_eigenbasis

from helpers import (
    LARGE_TIMES,
    apply_phases,
    complement,
    evolve_dense,
    evolve_product,
    evolve_via_eigh,
    materialize_unitary,
    product_state_amplitudes,
    random_state,
)


def _spectral(initial: StateVector, t: float) -> StateVector:
    return evolve(EvolutionEngine(initial.level), initial, t)


# the library's evolution and the two literal oracles it is checked against
EVOLVERS = {"spectral": _spectral, "product": evolve_product, "dense": evolve_dense}


def test_engine_takes_only_a_level():
    engine = EvolutionEngine(Level(1))
    assert engine.level == Level(1)
    assert not hasattr(engine, "kind") and not hasattr(hyperwalk, "ENGINE_KINDS")
    for kind in ("spectral", "product", "dense"):
        with pytest.raises(TypeError):
            EvolutionEngine(Level(1), kind)


@pytest.mark.parametrize("kind", EVOLVERS)
def test_two_level_closed_form(kind):
    lv = Level(0)
    for t in (0.0, 0.3, 1.1, math.pi / 2, 2.9):
        out = EVOLVERS[kind](vacuum_state(lv), t)
        phase = complex(math.cos(t), math.sin(t))
        expected = np.array([phase * math.cos(t), -1j * phase * math.sin(t)])
        assert np.abs(out.amps - expected).max() < 1e-14


@pytest.mark.parametrize("kind", EVOLVERS)
def test_zero_time_is_the_identity(kind, rng):
    lv = Level(3)
    xi = random_state(lv, rng)
    assert np.abs(EVOLVERS[kind](xi, 0.0).amps - xi.amps).max() < 1e-14


@pytest.mark.parametrize("kind", EVOLVERS)
@pytest.mark.parametrize("L", [0, 1, 3])
def test_quarter_period_sends_each_node_to_its_complement(kind, L):
    # exact componentwise identity, global phase included
    lv = Level(L)
    for sigma in range(lv.dim):
        out = EVOLVERS[kind](basis_state(lv, sigma), math.pi / 2)
        target = basis_state(lv, complement(sigma, lv))
        assert np.abs(out.amps - target.amps).max() < 1e-12


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_times_are_rejected(bad):
    engine = EvolutionEngine(Level(1))
    with pytest.raises(ValueError):
        evolve(engine, vacuum_state(Level(1)), bad)


@pytest.mark.parametrize("t", [10**400, -(10**400)], ids=["10**400", "-10**400"])
def test_overflowing_times_are_refused_plainly(t, rng):
    # an int beyond the float range, which cos and sin cannot take
    lv = Level(2)
    engine = EvolutionEngine(lv)
    message = re.escape(f"time {'-' if t < 0 else ''}<int of 1329 bits> is beyond the float range")
    for start in (vacuum_state(lv), random_state(lv, rng)):
        with pytest.raises(ValueError, match=message):
            evolve(engine, start, t)
    with pytest.raises(ValueError, match=message):
        pst_check(0, 1, t, engine)


def test_the_largest_times_still_evaluate(rng):
    # every finite float, up to the largest, and an int that rounds to one
    lv = Level(2)
    engine = EvolutionEngine(lv)
    for t in (8.98e307, -8.98e307, 1e308, -1e308, sys.float_info.max, -sys.float_info.max, 2**1023):
        for start in (vacuum_state(lv), random_state(lv, rng)):
            out = evolve(engine, start, t)
            assert np.abs(out.amps - evolve_product(start, t).amps).max() < 1e-12
        assert abs(pst_check(0, 3, t, engine) - abs(evolve_product(vacuum_state(lv), t).amps[3])) < 1e-12


def test_evolution_at_reduced_time_agrees(rng):
    lv = Level(4)
    for run in EVOLVERS.values():
        xi = random_state(lv, rng)
        for t in (-7.3, 2.2, 11.9):
            a = run(xi, t)
            b = run(xi, t % math.pi)
            assert np.abs(a.amps - b.amps).max() < 1e-10


@pytest.mark.parametrize("kind", EVOLVERS)
@pytest.mark.parametrize("L", [0, 3, 8])
def test_engines_match_the_product_closed_form_at_large_t(kind, L):
    lv = Level(L)
    for sigma in (0, lv.full_mask // 3):
        for t in LARGE_TIMES:
            got = EVOLVERS[kind](basis_state(lv, sigma), t).amps
            assert np.abs(got - product_state_amplitudes(L, sigma, t)).max() < 1e-12, t


@pytest.mark.parametrize("L", [0, 3, 8, 12])
def test_evolution_preserves_the_norm(L, rng):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    for _ in range(5):
        xi = random_state(lv, rng)
        t = float(rng.uniform(-10, 10))
        assert abs(evolve(engine, xi, t).norm() - 1.0) < 1e-12


@pytest.mark.parametrize("kind", EVOLVERS)
def test_group_law(kind, rng):
    lv = Level(4)
    run = EVOLVERS[kind]
    xi = random_state(lv, rng)
    for _ in range(5):
        s, t = rng.uniform(-5, 5, size=2)
        once = run(run(xi, float(s)), float(t))
        combined = run(xi, float(s + t))
        assert np.abs(once.amps - combined.amps).max() < 1e-10


@pytest.mark.parametrize("kind", EVOLVERS)
def test_periodicity(kind, rng):
    lv = Level(5)
    run = EVOLVERS[kind]
    for _ in range(10):
        xi = random_state(lv, rng)
        t = float(rng.uniform(-8, 8))
        a = run(xi, t + math.pi)
        b = run(xi, t)
        assert np.linalg.norm(a.amps - b.amps) < 1e-10


def test_full_period_unitary_is_the_identity():
    lv = Level(3)
    u = materialize_unitary(lv, math.pi)
    assert np.abs(u - np.eye(lv.dim)).max() < 1e-12


@pytest.mark.parametrize("L", [0, 2, 5, 8])
def test_engines_agree_pairwise(L, rng):
    lv = Level(L)
    for _ in range(10):
        xi = random_state(lv, rng)
        t = float(rng.uniform(-6, 6))
        outs = [run(xi, t).amps for run in EVOLVERS.values()]
        assert np.abs(outs[0] - outs[1]).max() < 1e-10
        assert np.abs(outs[0] - outs[2]).max() < 1e-9
        assert np.abs(outs[1] - outs[2]).max() < 1e-9


@pytest.mark.parametrize("L", [11, 14])
def test_spectral_and_product_agree_at_larger_sizes(L, rng):
    lv = Level(L)
    spectral = EvolutionEngine(lv)
    for _ in range(3):
        xi = random_state(lv, rng)
        t = float(rng.uniform(-6, 6))
        a = evolve(spectral, xi, t)
        b = evolve_product(xi, t)
        assert np.abs(a.amps - b.amps).max() < 1e-10


@pytest.mark.parametrize("L", [1, 3, 5])
def test_against_independent_eigh_exponential(L, rng):
    """Cross-check the library and both oracles against a LAPACK-diagonalized
    exponential of the dense generator, which shares no code with them."""
    lv = Level(L)
    xi = random_state(lv, rng)
    for t in (0.45, -2.3, 1.8):
        expected = evolve_via_eigh(xi, t)
        for run in EVOLVERS.values():
            got = run(xi, t).amps
            assert np.abs(got - expected).max() < 1e-11


def test_generator_derivative_shrinks_linearly(rng):
    # (U(h) - I)/h applied to a state approaches i * generator with O(h) error
    lv = Level(3)
    engine = EvolutionEngine(lv)
    xi = random_state(lv, rng)
    target = 1j * apply_laplacian(xi).amps
    errors = []
    h = 1e-3
    while h >= 1e-5:
        diff = (evolve(engine, xi, h).amps - xi.amps) / h
        errors.append(np.linalg.norm(diff - target))
        h /= 2
    for before, after in zip(errors, errors[1:]):
        ratio = after / before
        assert 0.3 < ratio < 0.7  # halving h should halve the error
    assert errors[-1] < errors[0] / 50  # h shrank by 64x overall


def test_engine_validation():
    engine = EvolutionEngine(Level(1))
    with pytest.raises(ValueError):
        evolve(engine, vacuum_state(Level(2)), 0.1)


def _accepted_or_refused(start: StateVector) -> None:
    """evolve, distribution_at and time_average each accept the start
    exactly when it is_normalized, else refuse it with the one message."""
    engine = EvolutionEngine(start.level)
    for call in (
        lambda: evolve(engine, start, 0.7),
        lambda: distribution_at(engine, start, 0.7),
        lambda: time_average(start, engine=engine),
    ):
        if start.is_normalized():
            call()
        else:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"initial state is not normalized (norm {start.norm()!r})"


def test_unnormalized_input_policy():
    # a one-hot start is checked from the vdot of its node's run; a NaN or
    # NaN-and-inf one is not within NORM_TOL of 1 either
    for z in (2.0, math.nan, complex(math.nan, 0.5), complex(0.0, math.nan), complex(math.nan, math.inf)):
        lopsided = StateVector(Level(1), [0, z, 0, 0])
        assert not lopsided.is_normalized()
        _accepted_or_refused(lopsided)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("L", [0, 3, 8, 12, 15, 17])
def test_a_dense_start_is_refused_from_the_kernels_sum(monkeypatch, L, workers):
    # the kernel sums |start|² as it reads the start, in the runs of
    # NORM_RUN that is_normalized sums: evolve, distribution_at and
    # time_average each refuse a start whose sum is not within NORM_TOL of 1,
    # NaN included (the first pass may warn of the invalid values it reads
    # before the refusal), with one error and message, on any number of
    # workers.  A squared norm a few ulps from 1 ± NORM_TOL (refused None)
    # is refused exactly when is_normalized says so
    monkeypatch.setattr(evolution, "THREADS_FROM", 0)
    monkeypatch.setattr(evolution, "_cpus", lambda: workers)
    lv = Level(L)
    start = random_state(lv, np.random.default_rng(L)).amps
    eps = np.finfo(float).eps
    squares = [(2.25, True), (1 + 3e-12, True), (1 - 3e-12, True), (1 + 3e-13, False), (0.0, True)]
    squares += [(1 + sign * NORM_TOL + k * eps, None) for sign in (-1, 1) for k in range(-2, 3)]
    starts = [(start * math.sqrt(squared), refused) for squared, refused in squares]
    for bad in ({5: math.nan}, {5: math.nan, 6: math.inf}, {6: complex(math.inf, math.nan)}, {6: complex(math.nan, 0.5)}):
        amps = start.copy()
        amps[[i % lv.dim for i in bad]] = list(bad.values())
        starts.append((amps, True))
    for amps, refused in starts:
        off = StateVector(lv, amps)
        assert refused is None or off.is_normalized() is not refused, amps[:8]
        _accepted_or_refused(off)


def test_the_one_sum_decides_near_the_edge():
    # squared norms one ulp inside 1 + NORM_TOL, where abs(amp) ** 2 or a
    # sum in other runs rounds outside: every call takes is_normalized's
    # sum and accepts both
    one_hot = basis_state(Level(2), 3)
    one_hot.amps[3] = 0.9986997818594362 + 0.05097789437505787j
    dense = random_state(Level(12), np.random.default_rng(12))
    dense.amps *= math.sqrt(1 + 1e-12)
    for start in (one_hot, dense):
        assert start.is_normalized() and start._squared_norm() > 1 + NORM_TOL - 2 * np.finfo(float).eps
        _accepted_or_refused(start)


@pytest.mark.parametrize("L", [2, 5, 13])
def test_a_one_hot_start_is_refused_by_its_runs_sum(L):
    # one-hot starts of any phase whose squared norm lies within a few
    # ulps of 1 ± NORM_TOL, the node in any run of NORM_RUN: each is
    # refused exactly when is_normalized is False
    lv = Level(L)
    rng = np.random.default_rng(300 + L)
    eps = np.finfo(float).eps
    for _ in range(300 if L < 13 else 30):
        sigma = int(rng.integers(lv.dim))
        squared = 1 + rng.choice([-1, 1]) * NORM_TOL + int(rng.integers(-4, 5)) * eps
        start = basis_state(lv, sigma)
        start.amps[sigma] = math.sqrt(squared) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        _accepted_or_refused(start)


def test_concurrent_dense_calls_on_one_engine():
    # every call works on its own buffers and its own threads: three
    # threads switching every microsecond get each call's bits
    lv = Level(10)
    start = random_state(lv, np.random.default_rng(10))
    times = [0.1 * j for j in range(24)]
    want = [distribution_at(EvolutionEngine(lv), start, t).probs for t in times]
    engine, got = EvolutionEngine(lv), [None] * len(times)

    def share(w):
        for j in range(w, len(times), 3):
            got[j] = distribution_at(engine, start, times[j]).probs

    threads = [threading.Thread(target=share, args=(w,)) for w in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


ONE_HOT_TIMES = [
    0.0, 0.4, 2.9, -0.4, -2.9, -37.5,
    math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2, -math.pi,
] + LARGE_TIMES


def _transform_route(state, t):
    coeffs = to_eigenbasis(state)
    apply_phases(coeffs, t)
    return from_eigenbasis(coeffs).amps


def _count_closed_form(monkeypatch):
    """Count the spectral engine's one-hot closed-form evaluations."""
    calls = []

    def counted(*args):
        calls.append(1)
        return basis_start_classes(*args)

    monkeypatch.setattr(evolution, "basis_start_classes", counted)
    return calls


@pytest.mark.parametrize("L", range(13))
def test_one_hot_starts_skip_the_transforms(L, monkeypatch):
    # every node for L <= 6, seeded nodes above
    lv = Level(L)
    if L <= 6:
        nodes = range(lv.dim)
    else:
        nodes = np.random.default_rng(1000 + L).integers(0, lv.dim, size=3).tolist()
    spectral = EvolutionEngine(lv)
    calls = _count_closed_form(monkeypatch)
    for sigma in nodes:
        start = basis_state(lv, sigma)
        for t in ONE_HOT_TIMES:
            got = evolve(spectral, start, t).amps
            assert np.abs(got - _transform_route(start, t)).max() < 1e-12, (sigma, t)
            assert np.abs(got - evolve_product(start, t).amps).max() < 1e-12, (sigma, t)
    assert len(calls) == len(nodes) * len(ONE_HOT_TIMES)


def test_one_hot_start_carries_its_global_phase(monkeypatch):
    lv = Level(5)
    spectral = EvolutionEngine(lv)
    calls = _count_closed_form(monkeypatch)
    for phi in (0.3, -1.9, math.pi):
        for sigma in (0, 9, lv.full_mask):
            start = StateVector(lv, np.exp(1j * phi) * basis_state(lv, sigma).amps)
            for t in (0.7, -2.2, math.pi / 2, 1e12):
                got = evolve(spectral, start, t).amps
                assert np.abs(got - _transform_route(start, t)).max() < 1e-12
                assert np.abs(got - evolve_product(start, t).amps).max() < 1e-12
    assert len(calls) == 3 * 3 * 4


def test_two_hot_start_takes_the_per_bit_sweep(monkeypatch):
    lv = Level(6)
    spectral = EvolutionEngine(lv)
    calls = _count_closed_form(monkeypatch)
    amps = np.zeros(lv.dim, dtype=np.complex128)
    amps[5] = 0.6
    amps[40] = 0.8j
    start = StateVector(lv, amps)
    for t in (0.5, -3.1, 1e9):
        got = evolve(spectral, start, t).amps
        assert np.abs(got - _transform_route(start, t)).max() < 1e-12
        assert np.abs(got - evolve_product(start, t).amps).max() < 1e-12
    assert not calls


# L > 8 takes every third time (1e15, 8.98e307 and -1e15 among them) and
# 1e12: there an overall phase exp(1j * m * t) would round m * t far beyond 1e-12
DENSE_TIMES = [
    0.0, 0.4, 2.9, -0.4, -2.9, -37.5,
    math.pi / 2, math.pi, 3 * math.pi / 2, -math.pi / 2, -math.pi, 2 * math.pi,
] + LARGE_TIMES + [8.98e307, -1e12, -8.98e307, -1e15]


@pytest.mark.parametrize("L", range(13))
def test_dense_states_match_the_transform_route_and_the_product_engine(L):
    lv = Level(L)
    spectral = EvolutionEngine(lv)
    rng = np.random.default_rng(2000 + L)
    times = DENSE_TIMES if L <= 8 else DENSE_TIMES[::3] + [1e12]
    for _ in range(2):
        start = random_state(lv, rng)
        for t in times:
            got = evolve(spectral, start, t).amps
            assert np.abs(got - _transform_route(start, t)).max() < 1e-12, t
            assert np.abs(got - evolve_product(start, t).amps).max() < 1e-12, t


def _product_qubits(L: int, start: str, rng: np.random.Generator) -> np.ndarray:
    """One normalized (amplitude of bit 0, amplitude of bit 1) row per
    element, in np.clongdouble: random, near |0>, or spread evenly with a
    random relative phase."""
    m = L + 1
    if start == "random":
        rows = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    elif start == "near-0":
        rows = np.stack([np.ones(m), 1e-3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))], axis=1)
    else:
        rows = np.stack([np.ones(m), np.exp(1j * rng.uniform(0, 2 * math.pi, m))], axis=1)
    rows = rows.astype(np.clongdouble)
    return rows / np.sqrt((rows.real**2 + rows.imag**2).sum(axis=1))[:, None]


def _kron(rows: np.ndarray) -> np.ndarray:
    """The product state of the rows, row k on bit k (the highest bit last)."""
    out = np.ones(1, dtype=rows.dtype)
    for row in rows:
        out = (row[:, None] * out[None, :]).reshape(-1)
    return out


def _evolved_qubits(rows: np.ndarray, t: float) -> np.ndarray:
    """Each row under e^{it} (cos t - i sin t X), in the rows' precision."""
    cos_t, sin_t = np.cos(np.longdouble(t)), np.sin(np.longdouble(t))
    phase = cos_t + 1j * sin_t
    a, b = rows[:, 0], rows[:, 1]
    return np.stack([phase * (cos_t * a - 1j * sin_t * b), phase * (cos_t * b - 1j * sin_t * a)], axis=1)


# the worst measured over seeds 38 and 1-10 is 4.37e-15 for probabilities and
# 2.22e-15 for amplitudes, both at seed 3, L = 19, the spread start and
# t = 1e-6.  Each bound leaves a margin of 1.7, rounded up.
DENSE_PROBABILITY_BOUND = 7.5e-15
DENSE_AMPLITUDE_BOUND = 4e-15


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here, so the oracle would round as the kernel does",
)
def test_dense_product_states_match_the_wide_kronecker_oracle_normwise():
    # the walk keeps a product state a product state: the oracle evolves each
    # element's qubit in np.clongdouble and takes the Kronecker product
    rng = np.random.default_rng(38)
    for L in (9, 15, 19):
        engine = EvolutionEngine(Level(L))
        for kind in ("random", "near-0", "spread"):
            rows = _product_qubits(L, kind, rng)
            start = StateVector(engine.level, _kron(rows).astype(np.complex128))
            for t in (0.3, 1e-6, 2.1, 1.3e11):
                want = _kron(_evolved_qubits(rows, t))
                want_probs = want.real**2 + want.imag**2
                probs = distribution_at(engine, start, t).probs
                err = np.max(np.abs(probs - want_probs)) / np.max(want_probs)
                assert err <= DENSE_PROBABILITY_BOUND, (L, kind, t, float(err))
                amps = evolve(engine, start, t).amps
                err = np.max(np.abs(amps - want)) / np.max(np.abs(want))
                assert err <= DENSE_AMPLITUDE_BOUND, (L, kind, t, float(err))


@pytest.mark.parametrize("L", [0, 1, 4, 10])
def test_one_hot_node_finds_every_one_hot_state(L):
    lv = Level(L)
    probe = evolution.ONE_HOT_PROBE
    for sigma in sorted({0, 1, probe - 1, probe, lv.dim - 1} & set(range(lv.dim))):
        amps = np.zeros(lv.dim, dtype=np.complex128)
        amps[sigma] = np.exp(0.3j)
        assert evolution.one_hot_node(amps) == sigma


@pytest.mark.parametrize("L", [1, 4, 10])
def test_one_hot_node_refuses_two_hot_states(L):
    lv = Level(L)
    probe = evolution.ONE_HOT_PROBE
    pairs = [(0, lv.dim - 1), (1, 2), (0, probe - 1), (probe - 1, probe), (probe, lv.dim - 1)]
    for i, j in pairs:
        if max(i, j) >= lv.dim or i == j:
            continue
        amps = np.zeros(lv.dim, dtype=np.complex128)
        amps[i], amps[j] = 0.6, 0.8j
        assert evolution.one_hot_node(amps) is None, (i, j)
    assert evolution.one_hot_node(np.zeros(lv.dim, dtype=np.complex128)) is None
    assert evolution.one_hot_node(random_state(lv, np.random.default_rng(L)).amps) is None


def test_dense_evolve_peaks_near_one_state():
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
    assert peak <= 1.25 * start.amps.nbytes, peak / start.amps.nbytes


def test_a_refused_time_allocates_nothing_node_sized():
    # at L = 18 one complex node array is 8 MiB; the time is refused before
    # the start is checked
    lv = Level(18)
    engine = EvolutionEngine(lv)
    start = random_state(lv, np.random.default_rng(18))
    start.amps *= 3.0
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="is beyond the float range"):
            evolve(engine, start, 10**400)
        for t in (True, np.complex128(0.5 + 2j)):  # not a time, though each converts to a float
            with pytest.raises(TypeError, match="must be real number"):
                evolve(engine, start, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
