import functools
import itertools
import math
import re
import time

import numpy as np
import pytest

from hyperwalk import operators
from hyperwalk import (
    Level,
    StateVector,
    apply_hat_involution,
    apply_involution,
    apply_involution_product,
    apply_laplacian,
    basis_state,
    vacuum_state,
)

from helpers import (
    literal_hat_apply,
    literal_kernel_matrix,
    operator_matrix,
    random_state,
    setminus_card,
)


def test_state_vector_validation():
    lv = Level(1)
    for amps in (np.zeros(3, dtype=complex), np.zeros(5), np.zeros((2, 2)), []):
        message = f"amplitude array must have shape (4,), got {np.shape(amps)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            StateVector(lv, amps)
    st = StateVector(lv, [1, 0, 0, 0])
    assert st.amps.dtype == np.complex128
    assert st.is_normalized()
    assert not StateVector(lv, [2, 0, 0, 0]).is_normalized()
    st = StateVector(level=lv, amps=np.arange(4)[::-1])
    assert st.level == lv and st.amps.flags.c_contiguous and st.amps.tolist() == [3, 2, 1, 0]
    assert repr(basis_state(Level(0), 1)) == "StateVector(level=Level(L=0), amps=array([0.+0.j, 1.+0.j]))"


@pytest.mark.parametrize("L", [13, 14])
@pytest.mark.parametrize("off, accepted", [(2e-12, False), (-2e-12, False), (5e-13, True), (-5e-13, True)])
def test_is_normalized_sums_every_run(L, off, accepted):
    # the squared norm is summed over runs of NORM_RUN amplitudes: off 1 in
    # the first or the last run alone, or spread over all of them, it is
    # judged by the whole sum
    lv = Level(L)
    start = random_state(lv, np.random.default_rng(L))
    runs = len(start.amps) // operators.NORM_RUN
    assert runs >= 2 and start.is_normalized()
    spread = StateVector(lv, start.amps * math.sqrt(1 + off))
    assert spread.is_normalized() is accepted
    for k in (0, runs - 1):
        amps = start.amps.copy()
        run = amps[k * operators.NORM_RUN : (k + 1) * operators.NORM_RUN]
        run *= math.sqrt(1 + off / np.vdot(run, run).real)
        assert StateVector(lv, amps).is_normalized() is accepted, k


def test_single_flip_on_basis_states():
    lv = Level(1)
    assert np.array_equal(apply_involution(0, vacuum_state(lv)).amps, basis_state(lv, 0b01).amps)
    assert np.array_equal(
        apply_involution(1, basis_state(lv, 0b01)).amps, basis_state(lv, 0b11).amps
    )


def test_single_flip_is_an_involution(rng):
    lv = Level(5)
    xi = random_state(lv, rng)
    for k in range(lv.L + 1):
        assert np.array_equal(apply_involution(k, apply_involution(k, xi)).amps, xi.amps)


def test_single_flip_is_exactly_norm_preserving(rng):
    # the operator is an index permutation, so the amplitude multiset is unchanged
    lv = Level(4)
    xi = random_state(lv, rng)
    out = apply_involution(2, xi)
    assert np.array_equal(np.sort_complex(out.amps), np.sort_complex(xi.amps))


def test_flips_commute_bit_exactly(rng):
    lv = Level(5)
    xi = random_state(lv, rng)
    for j, k in itertools.combinations(range(lv.L + 1), 2):
        jk = apply_involution(j, apply_involution(k, xi))
        kj = apply_involution(k, apply_involution(j, xi))
        assert np.array_equal(jk.amps, kj.amps)


def test_flip_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        apply_involution(2, vacuum_state(Level(1)))


def test_flip_product_is_xor_relabeling(rng):
    lv = Level(4)
    xi = random_state(lv, rng)
    assert np.array_equal(apply_involution_product(0, xi).amps, xi.amps)
    for sigma in range(lv.dim):
        out = apply_involution_product(sigma, xi)
        # compose single flips by hand
        expected = xi
        for k in range(lv.L + 1):
            if sigma >> k & 1:
                expected = apply_involution(k, expected)
        assert np.array_equal(out.amps, expected.amps)
        back = apply_involution_product(sigma, out)
        assert np.array_equal(back.amps, xi.amps)


@pytest.mark.parametrize("L", [1, 3, 5])
def test_flip_product_maps_vacuum_to_basis_states(L):
    lv = Level(L)
    for sigma in range(lv.dim):
        out = apply_involution_product(sigma, vacuum_state(lv))
        assert np.array_equal(out.amps, basis_state(lv, sigma).amps)


def test_flip_product_on_vacuum_small_case():
    lv = Level(1)
    out = apply_involution_product(0b11, vacuum_state(lv))
    assert np.array_equal(out.amps, basis_state(lv, 0b11).amps)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_hat_involution_matches_literal_permutation_sum(L, rng):
    lv = Level(L)
    xi = random_state(lv, rng)
    for sigma in range(lv.dim):
        fast = apply_hat_involution(sigma, xi).amps
        literal = literal_hat_apply(sigma, xi)
        assert np.abs(fast - literal).max() < 1e-10


@pytest.mark.parametrize("L", [1, 3, 5])
def test_hat_involution_product_identities(L, rng):
    lv = Level(L)
    xi = random_state(lv, rng)
    for sigma in range(lv.dim):
        once = apply_hat_involution(sigma, xi)
        twice = apply_hat_involution(sigma, once)
        assert np.abs(twice.amps - lv.dim * once.amps).max() < 1e-10
        other = apply_hat_involution((sigma + 1) % lv.dim, once)
        assert np.abs(other.amps).max() < 1e-10


def test_hat_involution_keeps_openblas_threads_asleep():
    # one dot of the node-sized column with the amplitudes wakes OpenBLAS's
    # pool, and CPU time over wall time reads about 2 on two CPUs; summed in
    # runs it reads 1.0.  The median: a pool woken before the test spins
    # through the first call
    lv = Level(20)
    state = random_state(lv, np.random.default_rng(20))
    apply_hat_involution(3, state)
    ratios = []
    for sigma in (5, 77, lv.full_mask):
        wall, cpu = time.perf_counter(), time.process_time()
        apply_hat_involution(sigma, state)
        ratios.append((time.process_time() - cpu) / (time.perf_counter() - wall))
    assert sorted(ratios)[1] < 1.3, ratios


def test_hat_involution_on_vacuum_gives_scaled_kernel_column():
    lv = Level(2)
    kernel = literal_kernel_matrix(lv.L)
    for sigma in range(lv.dim):
        out = apply_hat_involution(sigma, vacuum_state(lv)).amps
        # sqrt(dim) times the normalized signed basis vector
        expected = kernel[:, sigma].astype(complex)
        assert np.abs(out - expected).max() < 1e-12


def test_laplacian_small_matrix_and_action():
    lv = Level(0)
    out = apply_laplacian(StateVector(lv, [1, 0]))
    assert np.allclose(out.amps, [1, -1], atol=0)
    mat = operator_matrix(apply_laplacian, lv)
    assert np.array_equal(mat.real, np.array([[1, -1], [-1, 1]]))
    assert np.array_equal(mat.imag, np.zeros((2, 2)))


def test_laplacian_on_constants_and_basis():
    lv = Level(2)
    const = StateVector(lv, np.full(lv.dim, 0.5 + 0.25j))
    assert np.abs(apply_laplacian(const).amps).max() < 1e-14
    lv0 = Level(0)
    out = apply_laplacian(basis_state(lv0, 0))
    assert np.array_equal(out.amps, np.array([1.0 + 0j, -1.0 + 0j]))


def test_involution_matrix_small():
    mat = operator_matrix(functools.partial(apply_involution, 0), Level(0))
    assert np.array_equal(mat.real, np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("L", [0, 2, 4])
def test_laplacian_annihilates_the_uniform_vector(L):
    lv = Level(L)
    uniform = StateVector(lv, np.full(lv.dim, 1 / math.sqrt(lv.dim), dtype=complex))
    assert np.abs(apply_laplacian(uniform).amps).max() < 1e-14


@pytest.mark.parametrize("L", [1, 3, 5])
def test_laplacian_eigenrelation_on_signed_vectors(L):
    lv = Level(L)
    kernel = literal_kernel_matrix(L)
    for sigma in range(lv.dim):
        zhat = StateVector(lv, kernel[:, sigma] / math.sqrt(lv.dim))
        eig = 2 * (L + 1 - bin(sigma).count("1"))
        out = apply_laplacian(zhat)
        assert np.abs(out.amps - eig * zhat.amps).max() < 1e-12


@pytest.mark.parametrize("L", [2, 6, 10])
def test_laplacian_is_self_adjoint(L, rng):
    lv = Level(L)
    xi, eta = random_state(lv, rng), random_state(lv, rng)
    lhs = np.vdot(apply_laplacian(xi).amps, eta.amps)
    rhs = np.vdot(xi.amps, apply_laplacian(eta).amps)
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_row_sums_vanish():
    mat = operator_matrix(apply_laplacian, Level(3))
    assert np.abs(mat.sum(axis=1)).max() < 1e-14
    assert np.abs(mat - mat.conj().T).max() == 0.0


@pytest.mark.parametrize("L", [1, 2, 4])
def test_overlaps_between_plain_and_signed_bases(L):
    lv = Level(L)
    kernel = literal_kernel_matrix(L)
    scale = 1 / math.sqrt(lv.dim)
    for sigma in range(lv.dim):
        for tau in range(lv.dim):
            zhat = StateVector(lv, kernel[:, tau] * scale)
            got = np.vdot(basis_state(lv, sigma).amps, zhat.amps)
            expected = (-1) ** setminus_card(sigma, tau, lv.full_mask) * scale
            assert abs(got - expected) < 1e-12


def test_materialize_hat_is_scaled_projector():
    lv = Level(2)
    mat = operator_matrix(functools.partial(apply_hat_involution, 5), lv)
    # squares to dim times itself
    assert np.abs(mat @ mat - lv.dim * mat).max() < 1e-10
