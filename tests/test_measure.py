import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    Distribution,
    EvolutionEngine,
    Level,
    StateVector,
    TimeAverageDistribution,
    basis_state,
    closed_form_distribution,
    closed_form_pt,
    distribution_at,
    distribution_csv,
    evolve,
    format_node,
    is_symmetric,
    pst_check,
    time_average,
    vacuum_state,
)
from hyperwalk import evolution, measure
from hyperwalk.cli import _parse_pi_fraction, build_parser, cmd_pst, main

from helpers import (
    LARGE_TIMES,
    assert_same_text,
    complement,
    eigenspace_average,
    evolve_product,
    krawtchouk_average_by_card,
    krawtchouk_vacuum_probs,
    literal_time_average,
    literal_vacuum_prob,
    pair_sum_average,
    product_state_amplitudes,
    quadrature_oracle,
    random_state,
    reference_csv,
    vacuum_average_value,
)


def test_two_level_distribution_closed_form():
    lv = Level(0)
    engine = EvolutionEngine(lv)
    for t in (0.0, 0.4, 1.2, 2.8):
        dist = distribution_at(engine, vacuum_state(lv), t)
        assert dist.probs[0] == pytest.approx(math.cos(t) ** 2, abs=1e-14)
        assert dist.probs[1] == pytest.approx(math.sin(t) ** 2, abs=1e-14)


def test_distribution_at_time_zero_is_one_hot():
    lv = Level(2)
    engine = EvolutionEngine(lv)
    for sigma in range(lv.dim):
        dist = distribution_at(engine, basis_state(lv, sigma), 0.0)
        expected = np.zeros(lv.dim)
        expected[sigma] = 1.0
        assert np.abs(dist.probs - expected).max() < 1e-14


@pytest.mark.parametrize("L", [0, 2, 5])
def test_quarter_period_concentrates_on_the_full_node(L):
    lv = Level(L)
    dist = distribution_at(EvolutionEngine(lv), vacuum_state(lv), math.pi / 2)
    assert dist.probs[lv.full_mask] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(dist.probs, lv.full_mask)
    assert others.max() < 1e-12


@pytest.mark.parametrize("L", [0, 3, 7])
def test_distributions_sum_to_one(L, rng):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    for _ in range(5):
        dist = distribution_at(engine, random_state(lv, rng), float(rng.uniform(-5, 5)))
        assert abs(dist.probs.sum() - 1.0) < 1e-10
        assert dist.probs.min() >= 0.0


@pytest.mark.parametrize("L, tile_bytes", [*((L, None) for L in range(15)), (9, 256), (9, 512)])
def test_distribution_at_squares_evolve_bit_for_bit(L, tile_bytes, monkeypatch):
    # a dense start's tiles are squared in the kernel's buffer, before the
    # units ±1, ±i that evolve's amplitudes carry, to which re² + im² is
    # blind.  Every level from one run up to 16 runs and 16 rows at L = 14,
    # since a change of layout can change the bits at one small level alone;
    # at L = 9 also in tiles of one and two columns
    if tile_bytes:
        monkeypatch.setattr(evolution, "TILE_BYTES", tile_bytes)
    lv = Level(L)
    engine = EvolutionEngine(lv)
    rng = np.random.default_rng(4000 + L)
    for start in (random_state(lv, rng), basis_state(lv, lv.dim // 3)):
        for t in (0.0, 0.7, -2.9, math.pi / 2, 1e12, 8.98e307):
            want = measure.probability(evolve(engine, start, t).amps)
            got = distribution_at(engine, start, t).probs
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t


def test_closed_form_two_level_case():
    lv = Level(0)
    for t in np.linspace(0.0, math.pi, 9):
        assert closed_form_pt(0, float(t), lv) == pytest.approx(math.cos(t) ** 2, abs=1e-13)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_grouped_closed_form_matches_literal_subset_sum(L, rng):
    """The product closed form and the Krawtchouk grouping must both reproduce
    the ungrouped literal sum over all subsets."""
    lv = Level(L)
    for _ in range(5):
        t = float(rng.uniform(0, math.pi))
        grouped = krawtchouk_vacuum_probs(L, t)
        for sigma in range(lv.dim):
            literal = literal_vacuum_prob(sigma, t, L)
            assert closed_form_pt(sigma, t, lv) == pytest.approx(literal, abs=1e-12)
            assert grouped[sigma] == pytest.approx(literal, abs=1e-12)


@pytest.mark.parametrize("L", [0, 3, 6, 8])
def test_closed_form_matches_evolution(L, rng):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    vac = vacuum_state(lv)
    for _ in range(10):
        t = float(rng.uniform(-4, 4))
        evolved = distribution_at(engine, vac, t).probs
        closed = closed_form_distribution(lv, t).probs
        grouped = krawtchouk_vacuum_probs(L, t)
        assert np.abs(evolved - closed).max() < 1e-10
        assert np.abs(evolved - grouped).max() < 1e-10
        assert np.abs(closed - grouped).max() < 1e-10


@pytest.mark.parametrize("L", [0, 3, 8])
def test_closed_forms_hold_at_large_t(L):
    lv = Level(L)
    for t in LARGE_TIMES:
        expected = np.abs(product_state_amplitudes(L, 0, t)) ** 2
        assert np.abs(closed_form_distribution(lv, t).probs - expected).max() < 1e-12, t
        for sigma in (1, lv.full_mask):
            assert abs(closed_form_pt(sigma, t, lv) - expected[sigma]) < 1e-12, t


def test_closed_form_full_node_at_quarter_period():
    lv = Level(4)
    assert closed_form_pt(lv.full_mask, math.pi / 2, lv) == pytest.approx(1.0, abs=1e-12)


def test_time_average_two_level_case():
    dist = time_average(vacuum_state(Level(0)))
    assert np.abs(dist.probs - 0.5).max() < 1e-14


def test_time_average_four_level_frozen_values():
    # hand evaluation of the grouped sums at L=1: 6/16 on {} and {0,1}, 2/16 on the singletons
    expected = np.array([0.375, 0.125, 0.125, 0.375])
    for method in ("quadrature", "krawtchouk"):
        dist = time_average(vacuum_state(Level(1)), method)
        assert np.abs(dist.probs - expected).max() < 1e-12, method
    assert np.abs(pair_sum_average(Level(1)) - expected).max() < 1e-12


@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_pair_sum_matches_literal_double_loop(L):
    probs = pair_sum_average(Level(L))
    for sigma in range(Level(L).dim):
        assert probs[sigma] == pytest.approx(literal_time_average(sigma, L), abs=1e-13)


@pytest.mark.parametrize("L", range(7))
def test_quadrature_agrees_with_pair_sum(L):
    vac = vacuum_state(Level(L))
    quad = time_average(vac, "quadrature")
    assert np.abs(quad.probs - pair_sum_average(Level(L))).max() < 1e-10


@pytest.mark.parametrize("L", range(7))
def test_krawtchouk_agrees_with_pair_sum(L):
    vac = vacuum_state(Level(L))
    grouped = time_average(vac, "krawtchouk")
    assert np.abs(grouped.probs - pair_sum_average(Level(L))).max() < 1e-12


def test_krawtchouk_equals_the_sign_sum_table_exactly():
    # node (1 << d) - 1 has cardinality d; the exact per-class values must
    # round to the same floats as the Krawtchouk table's sums of squares
    for L in range(21):
        probs = time_average(vacuum_state(Level(L)), "krawtchouk").probs
        got = [float(probs[(1 << d) - 1]) for d in range(L + 2)]
        assert got == krawtchouk_average_by_card(L), L


def test_quadrature_is_already_converged(rng):
    # four times the number of sample times must not move the result
    lv = Level(3)
    xi = random_state(lv, rng)
    engine = EvolutionEngine(lv)
    m = lv.L + 2
    base = time_average(xi, "quadrature").probs
    acc = np.zeros(lv.dim)
    for j in range(4 * m):
        acc += distribution_at(engine, xi, j * math.pi / (4 * m)).probs
    assert np.abs(base - acc / (4 * m)).max() < 1e-12


# Largest deviation of a dense-start time_average from the eigenspace sum,
# relative to the largest probability, that the gate accepts: the worst of
# these 54 starts measured 1.04e-14 (L = 8, a real start), both with the
# kernel's last pass as a complex and as a real product, and 1.02e-14 with
# the runs in cache; about three times that.
EIGENSPACE_REL_TOL = 3e-14


@pytest.mark.parametrize("L", range(9))
def test_dense_time_average_matches_the_eigenspace_sum(L):
    # an oracle that takes no equispaced quadrature, for complex and real
    # starts with every amplitude nonzero
    for seed in range(3):
        rng = np.random.default_rng(100 * L + seed)
        real = rng.standard_normal(2 << L)
        for start in (random_state(Level(L), rng), StateVector(Level(L), real / np.linalg.norm(real))):
            want = eigenspace_average(start)
            got = time_average(start)
            assert got.method == "quadrature"
            assert np.abs(got.probs - want).max() <= EIGENSPACE_REL_TOL * want.max(), (seed, start.amps.imag.any())


@pytest.mark.parametrize("L", range(9))
def test_l_plus_2_points_are_the_fewest_exact_ones(L):
    # L+2 equispaced times meet the eigenspace gate; at L+1 the top
    # frequency 2(L+1) aliases onto the mean, and the average misses: by
    # 9.8e-6 (L = 8) to 0.77 (L = 0) over these 54 starts
    for seed in range(3):
        rng = np.random.default_rng(100 * L + seed)
        real = rng.standard_normal(2 << L)
        for start in (random_state(Level(L), rng), StateVector(Level(L), real / np.linalg.norm(real))):
            want = eigenspace_average(start)
            for points, exact in ((L + 2, True), (L + 1, False)):
                err = np.abs(quadrature_oracle(start, points=points) - want).max() / want.max()
                assert (err <= EIGENSPACE_REL_TOL) if exact else (err > 1e-6), (seed, points, err)


def test_quadrature_accepts_arbitrary_initial_states(rng):
    lv = Level(2)
    dist = time_average(random_state(lv, rng), "quadrature")
    assert abs(dist.probs.sum() - 1.0) < 1e-10


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _odd_double_factorial(k: int) -> int:
    """(2k-1)!!, with (-1)!! = 1."""
    return math.prod(range(1, 2 * k, 2))


def test_period_averages_round_the_exact_fractions_once():
    for m in range(65):
        even = 2**m * math.factorial(m)
        exact = [float(Fraction(_odd_double_factorial(m - d) * _odd_double_factorial(d), even)) for d in range(m + 1)]
        assert measure._period_averages(m) == exact, m


@pytest.mark.parametrize("L", range(9))
def test_node_average_is_the_exact_table_at_every_node(L):
    # the Beta integral (2(m-d)-1)!! (2d-1)!! / (2m)!! at distance d, rounded once
    lv, m = Level(L), L + 1
    even = math.prod(range(2, 2 * m + 1, 2))
    exact = np.array([float(Fraction(_odd_double_factorial(m - d) * _odd_double_factorial(d), even)) for d in range(m + 1)])
    extreme = float(Fraction(math.prod(range(1, 2 * L + 2, 2)), math.prod(range(2, 2 * L + 3, 2))))
    nodes = np.arange(lv.dim, dtype=np.uint64)
    for sigma in range(lv.dim):
        start = basis_state(lv, sigma)
        oracle = quadrature_oracle(start)
        for method in ("quadrature", "krawtchouk"):
            probs = time_average(start, method).probs
            assert np.array_equal(probs, exact[np.bitwise_count(nodes ^ np.uint64(sigma))]), (sigma, method)
            assert is_symmetric(TimeAverageDistribution(level=lv, probs=probs, method=method)).max_deviation == 0.0
            # the empty and full nodes from the vacuum; the start and its complement in general
            assert probs[sigma] == probs[complement(sigma, lv)] == extreme, (sigma, method)
            assert np.abs(probs - oracle).max() < 1e-12, (sigma, method)


# unit-modulus phases, and a modulus inside the normalization tolerance
@pytest.mark.parametrize("coeff", [-1.0, 1j, np.exp(0.7j), np.exp(-2.9j), 1.0 + 4e-13])
def test_node_average_does_not_depend_on_the_start_coefficient(coeff):
    for L in (0, 3, 6, 11):
        lv = Level(L)
        for sigma in (0, 5 % lv.dim, lv.full_mask):
            start = basis_state(lv, sigma)
            start.amps[sigma] = coeff
            plain = time_average(basis_state(lv, sigma)).probs
            for method in ("quadrature", "krawtchouk"):
                assert np.array_equal(time_average(start, method).probs, plain), (L, sigma, method)
            assert np.abs(plain - quadrature_oracle(start)).max() < 1e-12, (L, sigma)


def test_node_quadrature_keeps_the_evolve_errors():
    lv = Level(3)
    start = basis_state(lv, 5)
    start.amps[5] = 1.5
    with pytest.raises(ValueError) as fast:
        time_average(start)
    with pytest.raises(ValueError) as loop:
        quadrature_oracle(start)
    assert "not normalized" in str(fast.value)
    assert str(fast.value) == str(loop.value)
    with pytest.raises(ValueError, match="engine level L=2 does not match state level L=3"):
        time_average(basis_state(lv, 5), engine=EvolutionEngine(Level(2)))


def test_other_starts_take_the_loop(monkeypatch):
    # one kernel call per quadrature point, equal bit for bit to the loop of
    # distribution_at calls
    calls = []
    real = measure.apply_per_bit

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "apply_per_bit", counted)
    lv = Level(4)
    one_hot = basis_state(lv, 6)
    time_average(one_hot)
    assert calls == []
    two_hot = StateVector(lv, (basis_state(lv, 1).amps + basis_state(lv, 6).amps) / math.sqrt(2))
    for start in (two_hot, random_state(lv, np.random.default_rng(4))):
        calls.clear()
        got = time_average(start, engine=EvolutionEngine(lv)).probs
        assert len(calls) == lv.L + 2
        assert _same_bits(got, quadrature_oracle(start))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_dense_average_is_the_loop_on_shared_sweeps(monkeypatch, workers):
    # from L = 18 the kernel shares its sweeps among the workers
    monkeypatch.setattr(evolution, "_cpus", lambda: workers)
    lv = Level(18)
    start = random_state(lv, np.random.default_rng(18))
    assert _same_bits(time_average(start).probs, quadrature_oracle(start))


@pytest.mark.parametrize("L", [0, 5, 12])
def test_a_dense_start_is_checked_once(monkeypatch, L):
    # the kernel sums the start's norm on the first quadrature point only,
    # and no separate pass reads it
    lv = Level(L)
    start = random_state(lv, np.random.default_rng(L))
    oracle = quadrature_oracle(start)
    checks = []
    real = measure.apply_per_bit

    def counted(*args, check=False, **kwargs):
        checks.append(check)
        return real(*args, check=check, **kwargs)

    monkeypatch.setattr(measure, "apply_per_bit", counted)
    monkeypatch.setattr(StateVector, "is_normalized", None)
    got = time_average(start, engine=EvolutionEngine(lv)).probs
    assert checks == [True] + [False] * (L + 1)
    assert _same_bits(got, oracle)


@pytest.mark.parametrize(
    "cls, extra",
    [(Distribution, {"time": 0.5}), (TimeAverageDistribution, {"method": "quadrature"})],
    ids=["Distribution", "TimeAverageDistribution"],
)
def test_distributions_refuse_probabilities_of_the_wrong_length(cls, extra):
    lv = Level(2)
    assert cls(level=lv, probs=[0.125] * lv.dim, **extra).probs.dtype == np.float64
    dist = cls(lv, np.arange(lv.dim)[::-1], *extra.values())
    assert dist.level == lv and dist.probs.flags.c_contiguous and dist.probs.tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
    assert [getattr(dist, name) for name in extra] == list(extra.values())
    for probs in ([0.125] * (lv.dim - 1), [0.125] * (lv.dim + 1), np.full((2, 4), 0.125), []):
        with pytest.raises(ValueError, match=re.escape(f"probability array must have shape ({lv.dim},)")):
            cls(level=lv, probs=probs, **extra)


def test_symmetry_report_reads_the_complement_of_every_node():
    lv = Level(4)
    probs = np.random.default_rng(3).random(lv.dim)
    report = is_symmetric(TimeAverageDistribution(level=lv, probs=probs, method="quadrature"))
    dev = [abs(probs[g] - probs[complement(g, lv)]) for g in range(lv.dim)]
    assert report.max_deviation == max(dev)
    assert report.worst_node == dev.index(max(dev))


def test_krawtchouk_rejects_starts_that_are_not_basis_nodes(rng):
    lv = Level(2)
    two_hot = StateVector(lv, (basis_state(lv, 1).amps + basis_state(lv, 6).amps) / math.sqrt(2))
    # a node with float residue elsewhere is not one-hot: no tolerance applies
    near_vacuum = basis_state(lv, 0)
    near_vacuum.amps[2] = 1e-16
    for start in (two_hot, random_state(lv, rng), near_vacuum):
        with pytest.raises(ValueError, match="basis-node initial state"):
            time_average(start, "krawtchouk")
    # quadrature averages it over the time loop, next to the vacuum's average
    loop = time_average(near_vacuum, "quadrature").probs
    assert np.abs(loop - time_average(basis_state(lv, 0), "krawtchouk").probs).max() < 1e-12
    unnormalized = basis_state(lv, 3)
    unnormalized.amps[3] = 1.5
    with pytest.raises(ValueError, match="not normalized"):
        time_average(unnormalized, "krawtchouk")
    # a node times a unit phase is a basis-node start
    phased = basis_state(lv, 3)
    phased.amps[3] = np.exp(0.7j)
    assert np.array_equal(time_average(phased, "krawtchouk").probs, time_average(basis_state(lv, 3), "krawtchouk").probs)


@pytest.mark.parametrize("L", range(6))
def test_krawtchouk_from_every_node_is_the_relabeled_pair_sum(L):
    # from node sigma the average at g is the vacuum-start one at g ^ sigma
    lv = Level(L)
    vacuum = pair_sum_average(lv)
    nodes = np.arange(lv.dim)
    for sigma in range(lv.dim):
        got = time_average(basis_state(lv, sigma), "krawtchouk").probs
        assert np.abs(got - vacuum[nodes ^ sigma]).max() < 1e-12, sigma


@pytest.mark.parametrize("L", [6, 9, 12])
def test_krawtchouk_from_seeded_nodes_matches_the_quadrature_oracle(L):
    lv = Level(L)
    for sigma in [lv.full_mask, *np.random.default_rng(L).integers(0, lv.dim, size=2).tolist()]:
        start = basis_state(lv, sigma)
        got = time_average(start, "krawtchouk").probs
        assert np.abs(got - quadrature_oracle(start)).max() < 1e-12, sigma


EQUAL_DISTANCE_TIMES = [0.5, 0.731, -2.5, 1e12, _parse_pi_fraction("1/4"), _parse_pi_fraction("1/2")]


def _one_value_per_distance(values: np.ndarray, sigma: int) -> bool:
    """Whether nodes at equal Hamming distance from sigma hold equal bits."""
    bits = values.view(np.uint64)
    d = np.bitwise_count(np.arange(len(values), dtype=np.uint64) ^ np.uint64(sigma))
    per_distance = np.zeros((d.max() + 1, *bits.shape[1:]), dtype=np.uint64)
    per_distance[d] = bits  # one node's entry per distance
    return np.array_equal(bits, per_distance[d])


@pytest.mark.parametrize("L", [*range(9), 12, 17])
def test_node_start_quantities_take_one_value_per_distance(L):
    # the walk commutes with every relabeling of the elements, so from a node
    # everything depends on the target only through its distance
    lv, engine, parser = Level(L), EvolutionEngine(Level(L)), build_parser()
    sigmas = range(lv.dim) if L <= 8 else np.random.default_rng(L).integers(lv.dim, size=2).tolist()
    for sigma in sigmas:
        start = basis_state(lv, sigma)
        for method in ("quadrature", "krawtchouk"):
            assert _one_value_per_distance(time_average(start, method).probs, sigma), (sigma, method)
        for t in EQUAL_DISTANCE_TIMES:
            args = parser.parse_args(["pst", "--L", str(L), "--from", format_node(sigma), f"--t0={t!r}"])
            quantities = {
                "probs": distribution_at(engine, start, t).probs,
                "amps": evolve(engine, start, t).amps.view(np.float64).reshape(-1, 2),
                "fidelities": np.array(json.loads("".join(cmd_pst(args)))["fidelities"]),
            }
            for name, values in quantities.items():
                assert _one_value_per_distance(values, sigma), (sigma, t, name)


def test_class_table_symmetry_report_equals_the_gathered_one(rng):
    for L in (0, 1, 4, 7):
        lv = Level(L)
        for sigma in (0, lv.full_mask, int(rng.integers(lv.dim))):
            table = measure.node_time_average(lv, sigma)
            dist = TimeAverageDistribution(level=lv, probs=table.materialize(), method="krawtchouk")
            assert is_symmetric(table) == is_symmetric(dist)
            # an asymmetric table: the worst node is np.argmax's, ties included
            table = table.with_table(tuple(rng.integers(0, 4, size=len(table.table)).astype(np.float64).tolist()))
            dist = TimeAverageDistribution(level=lv, probs=table.materialize(), method="quadrature")
            assert is_symmetric(table) == is_symmetric(dist)


def test_two_time_average_methods():
    for method in ("quadrature", "krawtchouk"):
        time_average(vacuum_state(Level(1)), method)
    for method in ("pair_sum", "riemann"):
        with pytest.raises(ValueError) as refused:
            time_average(vacuum_state(Level(1)), method)
        assert str(refused.value) == f"unknown method {method!r}; expected one of ('quadrature', 'krawtchouk')"


@pytest.mark.parametrize(
    "L, expected",
    [(0, Fraction(1, 2)), (1, Fraction(3, 8)), (2, Fraction(5, 16))],
)
def test_vacuum_average_value_small_cases(L, expected):
    assert vacuum_average_value(L) == expected


@pytest.mark.parametrize("L", range(13))
def test_vacuum_average_value_equals_central_binomial_form(L):
    value = vacuum_average_value(L)
    assert value == Fraction(math.comb(2 * L + 2, L + 1), 4 ** (L + 1))
    # literal double factorial product
    num = math.prod(range(1, 2 * L + 2, 2))
    den = math.prod(range(2, 2 * L + 3, 2))
    assert value == Fraction(num, den)


@pytest.mark.parametrize("L", range(9))
def test_extreme_nodes_match_the_exact_value(L):
    lv = Level(L)
    exact = float(vacuum_average_value(L))
    for method in ("quadrature", "krawtchouk"):
        dist = time_average(vacuum_state(lv), method)
        assert dist.probs[0] == pytest.approx(exact, abs=1e-10)
        assert dist.probs[lv.full_mask] == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("L", range(9))
def test_time_average_is_complement_symmetric(L):
    report = is_symmetric(time_average(vacuum_state(Level(L))))
    assert report.symmetric
    assert report.max_deviation <= 1e-12


def test_symmetry_negative_control():
    lv = Level(2)
    probs = time_average(vacuum_state(lv)).probs.copy()
    probs[1] += 1e-3
    probs[5] -= 1e-3
    perturbed = TimeAverageDistribution(level=lv, probs=probs, method="quadrature")
    report = is_symmetric(perturbed)
    assert not report.symmetric
    assert report.max_deviation == pytest.approx(1e-3, rel=1e-6)
    assert report.worst_node in (1, 5, complement(1, lv), complement(5, lv))


@pytest.mark.parametrize("L", [0, 2, 4])
def test_pst_to_the_complement_at_quarter_period(L):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    for sigma in range(lv.dim):
        fid = pst_check(sigma, complement(sigma, lv), math.pi / 2, engine)
        assert fid >= 1.0 - 1e-12


@pytest.mark.parametrize("L", [1, 3])
def test_pst_is_exclusively_to_the_complement(L):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    for sigma in range(lv.dim):
        target = complement(sigma, lv)
        for tau in range(lv.dim):
            fid = pst_check(sigma, tau, math.pi / 2, engine)
            if tau == target:
                assert fid >= 1.0 - 1e-12
            else:
                assert fid <= 1e-12


def test_pst_returns_home_after_a_full_period():
    lv = Level(3)
    engine = EvolutionEngine(lv)
    for sigma in (0, 5, lv.full_mask):
        assert pst_check(sigma, sigma, math.pi, engine) >= 1.0 - 1e-12


@pytest.mark.parametrize("L", range(7))
def test_spectral_pst_check_matches_evolve_for_every_pair(L):
    lv = Level(L)
    spectral = EvolutionEngine(lv)
    for t in (0.4, -2.9, math.pi / 2, math.pi, 1e12):
        for sigma in range(lv.dim):
            start = basis_state(lv, sigma)
            want = np.abs(evolve_product(start, t).amps)
            near = np.abs(evolve(spectral, start, t).amps)
            got = np.array([pst_check(sigma, tau, t, spectral) for tau in range(lv.dim)])
            assert np.abs(got - want).max() < 1e-12, (sigma, t)
            assert np.abs(got - near).max() < 1e-12, (sigma, t)


@pytest.mark.parametrize("L", range(9))
def test_best_transfer_map_is_the_complement_map(L):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    for sigma in range(lv.dim):
        amps = distribution_at(engine, basis_state(lv, sigma), math.pi / 2).probs
        assert int(np.argmax(amps)) == complement(sigma, lv)


def test_distribution_exports():
    lv = Level(1)
    dist = time_average(vacuum_state(lv), "krawtchouk")
    csv = distribution_csv(dist)
    assert csv.splitlines()[0] == "node,probability"
    assert csv.splitlines()[1] == '"{}",0.375'
    assert dist.method == "krawtchouk"
    assert dist.probs.tolist() == [0.375, 0.125, 0.125, 0.375]
    assert distribution_at(EvolutionEngine(lv), vacuum_state(lv), 0.0).time == 0.0


@pytest.mark.parametrize("L", [0, 5, 12])
def test_distribution_csv_matches_the_reference_writer(rng, L):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    dense = distribution_at(engine, random_state(lv, rng), 0.7)
    node = time_average(basis_state(lv, int(rng.integers(lv.dim))))
    for dist in (dense, node):
        assert_same_text(distribution_csv(dist), reference_csv("node,probability", [dist.probs]))


def test_pst_check_allocates_nothing_node_sized(monkeypatch):
    # at the cap one complex node array would be 512 MiB
    monkeypatch.delenv("HYPERWALK_L_MAX", raising=False)
    lv = Level(24)
    engine = EvolutionEngine(lv)
    sigma = 0b1011001
    tracemalloc.start()
    try:
        fid = pst_check(sigma, complement(sigma, lv), math.pi / 2, engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fid >= 1.0 - 1e-12
    assert peak < 1 << 20, peak
    assert pst_check(sigma, sigma ^ 1, math.pi / 2, engine) <= 1e-12


@pytest.mark.parametrize("which", ["distribution_at", "closed_form_distribution"])
def test_node_start_distributions_allocate_one_float_per_node(which):
    # the L+2 table entries are squared before the gather, so the only
    # node-sized array is the float64 result: no complex gather to square
    lv = Level(16)
    engine, start = EvolutionEngine(lv), basis_state(lv, 5)
    run = {
        "distribution_at": lambda: distribution_at(engine, start, 0.7),
        "closed_form_distribution": lambda: closed_form_distribution(lv, 0.7),
    }[which]
    run()  # warm up: first-call allocations are not the distribution's
    tracemalloc.start()
    try:
        dist = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.probs.nbytes == 8 * lv.dim
    assert peak <= 1.25 * 8 * lv.dim, peak / (8 * lv.dim)


def test_a_dense_distribution_peaks_near_one_and_a_half_states():
    # a call allocates its complex intermediate (one state), its float64
    # result (a float per node), two run buffers and two tile buffers (an
    # eighth of the state a pair) and a table of units: 1.71 times the
    # state at L = 16, where a second intermediate would add one more
    lv = Level(16)
    engine, start = EvolutionEngine(lv), random_state(lv, np.random.default_rng(16))
    distribution_at(engine, start, 0.3)  # warm up: first-call allocations are not the distribution's
    tracemalloc.start()
    try:
        dist = distribution_at(engine, start, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dist.probs.nbytes == 8 * lv.dim
    assert peak <= 1.75 * start.amps.nbytes, peak / start.amps.nbytes


def test_a_dense_time_average_peaks_near_two_states():
    # one point's intermediate, the running sum and that point's squares
    # (a float per node each) and the kernel's buffers: 2.21 times the state
    # at L = 16, where a second intermediate would add one more
    lv = Level(16)
    start = random_state(lv, np.random.default_rng(16))
    time_average(start)  # warm up: first-call allocations are not the average's
    tracemalloc.start()
    try:
        average = time_average(start)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert average.probs.nbytes == 8 * lv.dim
    assert peak <= 2.25 * start.amps.nbytes, peak / start.amps.nbytes


def test_pst_check_rejects_non_finite_times():
    engine = EvolutionEngine(Level(3))
    for t0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be finite"):
            pst_check(0, 1, t0, engine)


# every call that takes a time, on a node start and on a dense one
TIME_TAKING = {
    "evolve": lambda lv, t: evolve(EvolutionEngine(lv), vacuum_state(lv), t),
    "evolve dense": lambda lv, t: evolve(EvolutionEngine(lv), random_state(lv, np.random.default_rng(7)), t),
    "distribution_at": lambda lv, t: distribution_at(EvolutionEngine(lv), vacuum_state(lv), t),
    "closed_form_pt": lambda lv, t: closed_form_pt(1, t, lv),
    "closed_form_distribution": lambda lv, t: closed_form_distribution(lv, t),
    "pst_check": lambda lv, t: pst_check(0, 1, t, EvolutionEngine(lv)),
}


@pytest.mark.parametrize("name", TIME_TAKING)
def test_every_time_is_checked_with_the_same_messages(name):
    call = TIME_TAKING[name]
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"time must be finite, got {t!r}")):
            call(Level(2), t)
    # every finite float is served, the largest among them
    for t in (1e308, -1e308, sys.float_info.max, -sys.float_info.max):
        call(Level(2), t)
    # an int beyond the float range, named by its sign and bit length: a name
    # by its digits could pass int's str limit
    for t, name in ((2**1024, "<int of 1025 bits>"), (-(10**400), "-<int of 1329 bits>"),
                    (10**5000, "<int of 16610 bits>"), (-(10**5000), "-<int of 16610 bits>")):
        with pytest.raises(ValueError, match=re.escape(f"time {name} is beyond the float range")):
            call(Level(2), t)
    for t in (1j, "1.0", None):  # not a real number
        with pytest.raises(TypeError):
            call(Level(2), t)


@pytest.mark.parametrize("L", [0, 1, 4, 9, 17])
def test_closed_form_pt_is_an_entry_of_the_closed_form_distribution(L):
    lv = Level(L)
    rng = np.random.default_rng(3000 + L)
    nodes = range(lv.dim) if lv.dim <= 64 else rng.integers(0, lv.dim, size=64).tolist()
    for t in [0.4, 1e12, *rng.uniform(-10.0, 10.0, size=40 if L < 17 else 8).tolist()]:
        probs = closed_form_distribution(lv, t).probs
        assert probs.tolist() == distribution_at(EvolutionEngine(lv), vacuum_state(lv), t).probs.tolist()
        for s in nodes:
            assert closed_form_pt(s, t, lv) == probs[s], (s, t)


@pytest.mark.parametrize("L", range(10))
def test_pst_check_equals_the_cli_fidelity(L, capsys):
    lv = Level(L)
    engine = EvolutionEngine(lv)
    rng = np.random.default_rng(4000 + L)
    for sigma, t in zip(rng.integers(0, lv.dim, size=4).tolist(), rng.uniform(-10.0, 10.0, size=4).tolist()):
        assert main(["pst", "--L", str(L), "--from", format_node(sigma), f"--t0={t!r}"]) == 0
        fidelities = json.loads(capsys.readouterr().out)["fidelities"]
        assert [pst_check(sigma, tau, t, engine) for tau in range(lv.dim)] == fidelities, (sigma, t)


@pytest.mark.parametrize("L", range(10))
def test_closed_form_pt_equals_the_cli_probability(L, capsys):
    lv = Level(L)
    rng = np.random.default_rng(5000 + L)
    for t in rng.uniform(-10.0, 10.0, size=4).tolist():
        assert main(["evolve", "--L", str(L), f"--t={t!r}"]) == 0
        probs = json.loads(capsys.readouterr().out)["probs"]
        assert [closed_form_pt(s, t, lv) for s in range(lv.dim)] == probs, t


def _rounding_samples(rng, n):
    """Complex values of random magnitude, subnormal, tiny, near 1 and
    large, with signed and zero parts."""
    scale = 10.0 ** rng.uniform(-320, 150, size=n)
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
    phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=n))
    near_one = phase * (1.0 + rng.standard_normal(n) * 1e-15)
    subnormal = (rng.integers(-50, 50, size=n) + 1j * rng.integers(-50, 50, size=n)) * 5e-324
    edges = np.array([0j, -0.0 - 0j, 1 + 0j, 1j, -1j, 5e-324j, 1e-160 + 1e-160j, 1e153 + 1e153j])
    return np.concatenate([values, near_one, subnormal, edges])


def test_probabilities_equal_the_one_amplitude_rule_bit_for_bit(rng):
    amps = _rounding_samples(rng, 40000)
    got = measure.probability(amps)
    want = np.array([measure.probability(z) for z in amps.tolist()])
    assert got.dtype == np.float64 and got.shape == amps.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fidelities_take_one_rounding_in_python_and_numpy(rng):
    amps = _rounding_samples(rng, 20000)
    fidelities = np.array([abs(z) for z in amps.tolist()])
    assert np.array_equal(np.hypot(amps.real, amps.imag).view(np.uint64), fidelities.view(np.uint64))


def test_time_average_records_the_method_it_used(rng):
    lv = Level(1)
    assert time_average(basis_state(lv, 0)).method == "krawtchouk"
    assert time_average(basis_state(lv, 3), "krawtchouk").method == "krawtchouk"
    two_hot = StateVector(lv, np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0))
    assert time_average(two_hot).method == "quadrature"
    assert time_average(random_state(lv, rng)).method == "quadrature"
