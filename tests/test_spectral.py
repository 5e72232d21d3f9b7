import json
import math

import numpy as np
import pytest

from hyperwalk import (
    EvolutionEngine,
    Level,
    Spectrum,
    SpectrumEntry,
    StateVector,
    apply_hat_involution,
    apply_involution,
    apply_laplacian,
    basis_state,
    evolve,
    from_eigenbasis,
    spectrum,
    to_eigenbasis,
    vacuum_state,
)
from hyperwalk import evolution
from hyperwalk.formatting import dumps_json
from hyperwalk.spectral import ClassTable, basis_start_classes, sign_column

from helpers import literal_kernel_matrix, operator_matrix, pm1_transform, popcount, random_state


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 5, 6])
def test_fast_transform_matches_literal_kernel_exactly(L):
    """to_eigenbasis and from_eigenbasis of every basis vector are the
    literal kernel's rows and columns times dim**-0.5, exactly: the ±1
    butterfly of a one-hot vector adds and subtracts only 0 and ±1."""
    lv = Level(L)
    kernel = literal_kernel_matrix(L)
    scale = lv.dim**-0.5
    for sigma in range(lv.dim):
        # forward rows: the coefficient vector of the one-hot state
        forward = to_eigenbasis(basis_state(lv, sigma)).amps
        assert np.array_equal(forward.real, kernel[sigma, :] * scale)
        assert np.abs(forward.imag).max() == 0.0
        # inverse columns: the signed basis vector
        inverse = from_eigenbasis(basis_state(lv, sigma)).amps
        assert np.array_equal(inverse.real, kernel[:, sigma] * scale)
        assert np.abs(inverse.imag).max() == 0.0


def test_the_transforms_do_not_run_the_walk_kernel(monkeypatch, rng):
    # the change of basis is an oracle of the dense evolution
    # (_transform_route), so it shares no code with the kernel it checks
    def refused(*args, **kwargs):
        raise AssertionError("the change of basis ran the per-bit kernel")

    # every kernel call plans its passes, however apply_per_bit was imported
    monkeypatch.setattr(evolution, "apply_per_bit", refused)
    monkeypatch.setattr(evolution, "_plan", refused)
    lv = Level(5)
    xi = random_state(lv, rng)
    signs = sign_column(lv.full_mask, lv.dim)
    coeffs = to_eigenbasis(xi)
    assert np.abs(coeffs.amps - pm1_transform(signs * xi.amps) / math.sqrt(lv.dim)).max() < 1e-13
    assert np.abs(from_eigenbasis(coeffs).amps - xi.amps).max() < 1e-13


@pytest.mark.parametrize("L", [0, 3, 6])
def test_change_of_basis_is_the_parity_sign_then_the_pm1_transform(L, rng):
    lv = Level(L)
    signs = sign_column(lv.dim - 1, lv.dim)
    scale = 1 / math.sqrt(lv.dim)
    xi = random_state(lv, rng)
    assert np.abs(to_eigenbasis(xi).amps - scale * pm1_transform(signs * xi.amps)).max() < 1e-13
    assert np.abs(from_eigenbasis(xi).amps - scale * signs * pm1_transform(xi.amps)).max() < 1e-13


@pytest.mark.parametrize("L", [0, 2, 5])
def test_transform_round_trip_and_parseval(L, rng):
    lv = Level(L)
    xi = random_state(lv, rng)
    coeffs = to_eigenbasis(xi)
    assert abs(np.linalg.norm(coeffs.amps) - 1.0) < 1e-12
    back = from_eigenbasis(coeffs)
    assert np.abs(back.amps - xi.amps).max() < 1e-12


def test_vacuum_transforms_to_the_uniform_coefficient_vector():
    lv = Level(3)
    coeffs = to_eigenbasis(vacuum_state(lv))
    assert np.abs(coeffs.amps - 1 / math.sqrt(lv.dim)).max() < 1e-14


def test_signed_vector_transforms_to_one_hot():
    lv = Level(2)
    kernel = literal_kernel_matrix(lv.L)
    for tau in range(lv.dim):
        zhat = StateVector(lv, kernel[:, tau] / math.sqrt(lv.dim))
        coeffs = to_eigenbasis(zhat)
        expected = np.zeros(lv.dim)
        expected[tau] = 1.0
        assert np.abs(coeffs.amps - expected).max() < 1e-13


def test_from_eigenbasis_of_zero_and_uniform():
    lv = Level(3)
    zero = from_eigenbasis(StateVector(lv, np.zeros(lv.dim)))
    assert np.abs(zero.amps).max() == 0.0
    uniform = np.full(lv.dim, 1 / math.sqrt(lv.dim), dtype=complex)
    got = from_eigenbasis(StateVector(lv, uniform)).amps
    expected = literal_kernel_matrix(lv.L) @ uniform / math.sqrt(lv.dim)
    assert np.abs(got - expected).max() < 1e-13


@pytest.mark.parametrize("L", [1, 3, 6])
def test_flip_eigenrelation_on_every_signed_vector(L):
    lv = Level(L)
    for sigma in range(lv.dim):
        zhat = from_eigenbasis(basis_state(lv, sigma))
        for k in range(L + 1):
            sign = 1.0 if sigma >> k & 1 else -1.0
            flipped = apply_involution(k, zhat)
            assert np.abs(flipped.amps - sign * zhat.amps).max() < 1e-12


def test_eigenvalue_of_examples():
    # node sigma's eigenvector is the sign column apply_hat_involution projects onto
    for L, sigma, eigenvalue in [(2, Level(2).full_mask, 0), (2, 0, 6), (1, 0b01, 2)]:
        lv = Level(L)
        v = apply_hat_involution(sigma, vacuum_state(lv))
        assert np.array_equal(apply_laplacian(v).amps, eigenvalue * v.amps)
        (entry,) = [e for e in spectrum(lv).entries if e.card == sigma.bit_count()]
        assert entry.eigenvalue == eigenvalue
    with pytest.raises(ValueError):
        apply_hat_involution(4, vacuum_state(Level(1)))


@pytest.mark.parametrize(
    "L, eigenvalues, multiplicities",
    [
        (0, [0, 2], [1, 1]),
        (1, [0, 2, 4], [1, 2, 1]),
        (3, [0, 2, 4, 6, 8], [1, 4, 6, 4, 1]),
    ],
)
def test_spectrum_small_cases(L, eigenvalues, multiplicities):
    spec = spectrum(Level(L))
    assert [e.eigenvalue for e in spec.entries] == eigenvalues
    assert [e.multiplicity for e in spec.entries] == multiplicities
    assert sum(multiplicities) == Level(L).dim


@pytest.mark.parametrize("L", range(7))
def test_spectrum_structure(L):
    spec = spectrum(Level(L))
    eigenvalues = [e.eigenvalue for e in spec.entries]
    assert eigenvalues == sorted(eigenvalues)
    for entry in spec.entries:
        assert entry.eigenvalue == 2 * (L + 1 - entry.card)
        assert entry.multiplicity == math.comb(L + 1, entry.card)


@pytest.mark.parametrize("L", range(7))
def test_spectrum_matches_dense_eigendecomposition(L):
    lv = Level(L)
    dense = operator_matrix(apply_laplacian, lv)
    values = np.linalg.eigvalsh(dense.real)
    rounded = np.round(values / 2).astype(int) * 2
    assert np.abs(values - rounded).max() < 1e-9
    counts = {int(v): int((rounded == v).sum()) for v in set(rounded.tolist())}
    expected = {e.eigenvalue: e.multiplicity for e in spectrum(lv).entries}
    assert counts == expected


def test_spectrum_json_shape():
    doc = json.loads(dumps_json(spectrum(Level(1)).to_json_dict()))
    assert doc == {
        "L": 1,
        "entries": [
            {"eigenvalue": 0, "multiplicity": 1, "card": 2},
            {"eigenvalue": 2, "multiplicity": 2, "card": 1},
            {"eigenvalue": 4, "multiplicity": 1, "card": 0},
        ],
    }
    assert isinstance(spectrum(Level(1)), Spectrum)


def _random_tables(rng):
    """ClassTables of random entries, one per distance, with ties, from the
    empty, the full and seeded nodes."""
    for L in (0, 1, 2, 5, 8):
        lv = Level(L)
        for sigma in {0, lv.full_mask, int(rng.integers(lv.dim))}:
            # few distinct values, so maxima tie across distances
            yield ClassTable(lv, sigma, tuple(rng.integers(0, 3, size=L + 2).astype(np.float64).tolist()))
            yield ClassTable(lv, sigma, tuple(rng.random(L + 2).tolist()))


def test_class_tables_and_spectra_are_equal_by_value():
    table = basis_start_classes(Level(2), 0b101, 0.7)
    assert table == basis_start_classes(Level(2), 0b101, 0.7) == ClassTable(level=Level(2), sigma=0b101, table=table.table)
    assert hash(table) == hash(table.with_table(table.table))
    assert table != basis_start_classes(Level(2), 0b100, 0.7)
    assert table != basis_start_classes(Level(2), 0b101, 0.8)
    assert table != basis_start_classes(Level(3), 0b101, 0.7)
    with pytest.raises(AttributeError):
        table.sigma = 0
    assert spectrum(Level(3)) == spectrum(Level(3)) != spectrum(Level(2))
    assert spectrum(Level(1)) == Spectrum(
        level=Level(1),
        entries=(SpectrumEntry(0, 1, 2), SpectrumEntry(2, 2, 1), SpectrumEntry(eigenvalue=4, multiplicity=1, card=0)),
    )


def test_class_table_reads_the_distance_of_every_node(rng):
    for table in _random_tables(rng):
        lv = table.level
        values = table.materialize()
        assert values.size == lv.dim
        for g in range(lv.dim):
            assert values[g] == table.table[popcount(g ^ table.sigma)]
            assert table.at(g) == values[g]


def test_class_table_argmax_is_numpy_argmax_with_ties(rng):
    for table in _random_tables(rng):
        assert table.argmax() == int(np.argmax(table.materialize()))


def test_class_table_argmax_is_numpy_argmax_from_every_node():
    # every node of L <= 4 under tables whose best is at d = 0, at d = m, at
    # one distance between, at several at once and at all of them
    for L in range(5):
        lv, m = Level(L), L + 1
        bests = [{0}, {m}, {m // 2}, {0, m}, {1, m}, set(range(1, m + 1, 2)), set(range(m + 1))]
        for sigma in range(lv.dim):
            for best in bests:
                table = ClassTable(lv, sigma, tuple(1.0 if d in best else 0.5 for d in range(m + 1)))
                assert table.argmax() == int(np.argmax(table.materialize())), (L, sigma, best)


def test_class_table_argmax_at_the_level_cap(monkeypatch):
    # the transfer to the complement, pst's target at pi/2, without a node scan
    monkeypatch.delenv("HYPERWALK_L_MAX", raising=False)
    lv = Level(24)
    for sigma in (0, 0b100001, lv.full_mask, 0x5A5A5A):
        fidelities = basis_start_classes(lv, sigma, math.pi / 2)
        assert fidelities.with_table(tuple(map(abs, fidelities.table))).argmax() == lv.full_mask ^ sigma
        # the best at distance 1 alone: sigma's highest set bit cleared, or bit 0 set
        one = ClassTable(lv, sigma, tuple(float(d == 1) for d in range(26)))
        assert one.argmax() == (sigma ^ 1 << sigma.bit_length() - 1 if sigma else 1)


def test_basis_start_classes_gather_to_evolve():
    for L in (0, 3, 6):
        lv = Level(L)
        for sigma in (0, 5 % lv.dim, lv.full_mask):
            for t in (0.0, 0.4, -2.9, 1e12):
                table = basis_start_classes(lv, sigma, t)
                amps = evolve(EvolutionEngine(lv), basis_state(lv, sigma), t).amps
                assert np.array_equal(table.materialize(), amps)
                pairs = table.with_table(tuple((a.real, a.imag) for a in table.table))
                assert np.array_equal(pairs.materialize(), amps.view(np.float64).reshape(-1, 2))
