"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
from fractions import Fraction

import numpy as np

from hyperwalk import (
    EvolutionEngine,
    Level,
    apply_laplacian,
    basis_state,
    closed_form_distribution,
    distribution_at,
    edges,
    evolve,
    pst_check,
    spectrum,
    time_average,
    vacuum_state,
)
from hyperwalk.evolution import apply_per_bit
from hyperwalk.spectral import bit_factor

from helpers import (
    complement,
    evolve_dense,
    evolve_product,
    evolve_via_eigh,
    graph_laplacian_matrix,
    krawtchouk_vacuum_probs,
    neighborhood,
    operator_matrix,
    pair_sum_average,
    peak_kib,
    random_state,
    start_measured,
    vacuum_average_value,
)


def _report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert not failures, f"criterion {num} {name}: {failures[:5]}"


def test_criterion_01_spectrum():
    failures = []
    for L in range(11):
        lv = Level(L)
        spec = spectrum(lv)
        expected = [(2 * k, math.comb(L + 1, k)) for k in range(L + 2)]
        got = [(e.eigenvalue, e.multiplicity) for e in spec.entries]
        if got != expected:
            failures.append(f"L={L}: {got} != {expected}")
        if sum(e.multiplicity for e in spec.entries) != lv.dim:
            failures.append(f"L={L}: multiplicities do not sum to dim")
    worst = 0.0
    for L in range(7):
        lv = Level(L)
        values = np.linalg.eigvalsh(operator_matrix(apply_laplacian, lv).real)
        rounded = np.round(values / 2).astype(int) * 2
        worst = max(worst, float(np.abs(values - rounded).max()))
        if np.abs(values - rounded).max() > 1e-9:
            failures.append(f"L={L}: dense eigenvalues off even integers")
        counts = {int(v): int((rounded == v).sum()) for v in set(rounded.tolist())}
        expected = {e.eigenvalue: e.multiplicity for e in spectrum(lv).entries}
        if counts != expected:
            failures.append(f"L={L}: dense multiplicities {counts} != {expected}")
    _report(1, "spectrum", failures, f"max dense eigenvalue deviation {worst:.2e}")


def test_criterion_02_perfect_state_transfer():
    rng = np.random.default_rng(2024)
    failures = []
    worst_fid = 1.0
    worst_vec = 0.0
    for L in range(11):
        lv = Level(L)
        engine = EvolutionEngine(lv)
        if L <= 6:
            sources = range(lv.dim)
        else:
            sources = rng.integers(0, lv.dim, size=200).tolist()
        for sigma in sources:
            sigma = int(sigma)
            target = complement(sigma, lv)
            fid = pst_check(sigma, target, math.pi / 2, engine)
            worst_fid = min(worst_fid, fid)
            if fid < 1.0 - 1e-12:
                failures.append(f"L={L} sigma={sigma}: fidelity {fid}")
            out = evolve(engine, basis_state(lv, sigma), math.pi / 2)
            dev = float(np.abs(out.amps - basis_state(lv, target).amps).max())
            worst_vec = max(worst_vec, dev)
            if dev > 1e-12:
                failures.append(f"L={L} sigma={sigma}: componentwise deviation {dev}")
    _report(
        2,
        "perfect state transfer",
        failures,
        f"min fidelity {worst_fid:.15f}, max componentwise deviation {worst_vec:.2e}",
    )


def test_criterion_03_periodicity():
    rng = np.random.default_rng(3033)
    failures = []
    worst = 0.0
    for L in range(11):
        lv = Level(L)
        engine = EvolutionEngine(lv)
        runs = {
            "spectral": lambda xi, t: evolve(engine, xi, t).amps,
            "product": lambda xi, t: evolve_product(xi, t).amps,
        }
        if L <= 8:
            runs["dense"] = lambda xi, t: evolve_dense(xi, t).amps
        for _ in range(100):
            xi = random_state(lv, rng)
            t = float(rng.normal(0.0, 3.0))  # full-mantissa times
            for name, run in runs.items():
                dev = float(np.linalg.norm(run(xi, t + math.pi) - run(xi, t)))
                worst = max(worst, dev)
                if dev > 1e-10:
                    failures.append(f"L={L} {name} t={t}: norm deviation {dev}")
    _report(3, "periodicity", failures, f"max norm deviation {worst:.2e}")


def test_criterion_04_single_node_distribution():
    failures = []
    worst_peak = 0.0
    worst_rest = 0.0
    for L in range(13):
        lv = Level(L)
        dist = distribution_at(EvolutionEngine(lv), vacuum_state(lv), math.pi / 2)
        peak_dev = abs(float(dist.probs[lv.full_mask]) - 1.0)
        rest = float(np.delete(dist.probs, lv.full_mask).max())
        worst_peak = max(worst_peak, peak_dev)
        worst_rest = max(worst_rest, rest)
        if peak_dev > 1e-12:
            failures.append(f"L={L}: full-node probability off by {peak_dev}")
        if rest > 1e-12:
            failures.append(f"L={L}: residual probability {rest}")
    _report(
        4,
        "single-node distribution",
        failures,
        f"max peak deviation {worst_peak:.2e}, max residual {worst_rest:.2e}",
    )


def test_criterion_05_time_average_value():
    failures = []
    spot = {0: 0.5, 1: 0.375, 2: 0.3125}
    worst = 0.0
    for L in range(11):
        lv = Level(L)
        vac = vacuum_state(lv)
        exact = float(vacuum_average_value(L))
        if vacuum_average_value(L) != Fraction(math.comb(2 * L + 2, L + 1), 4 ** (L + 1)):
            failures.append(f"L={L}: double-factorial and binomial forms disagree")
        if L in spot and exact != spot[L]:
            failures.append(f"L={L}: exact value {exact} != spot value {spot[L]}")
        dists = {
            "quadrature": time_average(vac, "quadrature").probs,
            "krawtchouk": time_average(vac, "krawtchouk").probs,
        }
        if L <= 6:
            dists["pair_sum"] = pair_sum_average(lv)
        for name, probs in dists.items():
            for node in (0, lv.full_mask):
                dev = abs(float(probs[node]) - exact)
                worst = max(worst, dev)
                if dev > 1e-10:
                    failures.append(f"L={L} {name} node={node}: deviation {dev}")
        if L <= 6:
            cross = float(np.abs(dists["pair_sum"] - dists["quadrature"]).max())
            worst = max(worst, cross)
            if cross > 1e-10:
                failures.append(f"L={L}: pair-sum vs quadrature deviation {cross}")
    _report(5, "time-average value", failures, f"max deviation {worst:.2e}")


def test_criterion_06_complement_symmetry():
    failures = []
    worst = 0.0
    for L in range(11):
        lv = Level(L)
        vac = vacuum_state(lv)
        for method in ("quadrature", "krawtchouk"):
            probs = time_average(vac, method).probs
            flipped = probs[np.arange(lv.dim) ^ lv.full_mask]
            dev = float(np.abs(probs - flipped).max())
            worst = max(worst, dev)
            if dev > 1e-12:
                failures.append(f"L={L} {method}: symmetry deviation {dev}")
    _report(6, "complement symmetry", failures, f"max deviation {worst:.2e}")


def test_criterion_07_closed_form_consistency():
    # distribution_at from the vacuum runs the closed form's code; the dense
    # kernel on the same start and the Krawtchouk grouping are the legs that
    # compute it another way
    rng = np.random.default_rng(7077)
    failures = []
    worst = 0.0
    for L in range(9):
        lv = Level(L)
        engine = EvolutionEngine(lv)
        vac = vacuum_state(lv)
        for _ in range(50):
            t = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            evolved = distribution_at(engine, vac, t).probs
            closed = closed_form_distribution(lv, t).probs
            grouped = krawtchouk_vacuum_probs(L, t)
            kernel = apply_per_bit(vac.amps, *bit_factor(t, L + 1), square=True)
            legs = [evolved, closed, grouped, kernel]
            dev = max(
                float(np.abs(legs[i] - legs[j]).max())
                for i in range(len(legs))
                for j in range(i + 1, len(legs))
            )
            worst = max(worst, dev)
            if dev > 1e-10:
                failures.append(f"L={L} t={t}: deviation {dev}")
    _report(7, "closed-form consistency", failures, f"max deviation {worst:.2e}")


def test_criterion_08_graph_equivalence():
    failures = []
    for L in range(9):
        lv = Level(L)
        from_operator = operator_matrix(apply_laplacian, lv)
        if float(np.abs(from_operator.imag).max()) != 0.0:
            failures.append(f"L={L}: operator matrix has imaginary parts")
        as_int = np.rint(from_operator.real).astype(np.int64)
        if float(np.abs(from_operator.real - as_int).max()) != 0.0:
            failures.append(f"L={L}: operator matrix is not exactly integer")
        if not np.array_equal(graph_laplacian_matrix(lv), as_int):
            failures.append(f"L={L}: graph and operator matrices differ")
        degree = [0] * lv.dim
        for a, b in edges(lv):
            degree[a] += 1
            degree[b] += 1
        for sigma in range(lv.dim):
            if not degree[sigma] == len(neighborhood(sigma, lv)) == L + 1:
                failures.append(f"L={L} sigma={sigma}: degree != L+1")
    _report(8, "graph equivalence", failures)


def test_criterion_09_engine_triangulation():
    # the library's per-bit kernel, the literal product of one-element
    # factors, and a LAPACK-diagonalized exponential of the dense generator
    rng = np.random.default_rng(9099)
    failures = []
    worst_triple = 0.0
    worst_pair = 0.0
    for L in range(9):
        lv = Level(L)
        engine = EvolutionEngine(lv)
        for _ in range(100):
            xi = random_state(lv, rng)
            t = float(rng.uniform(-8, 8))
            outs = [
                evolve(engine, xi, t).amps,
                evolve_product(xi, t).amps,
                evolve_via_eigh(xi, t),
            ]
            dev = max(
                float(np.abs(outs[i] - outs[j]).max())
                for i in range(3)
                for j in range(i + 1, 3)
            )
            worst_triple = max(worst_triple, dev)
            if dev > 1e-9:
                failures.append(f"L={L} t={t}: three-engine deviation {dev}")
    for L in range(9, 15):
        lv = Level(L)
        spectral = EvolutionEngine(lv)
        for _ in range(100):
            xi = random_state(lv, rng)
            t = float(rng.uniform(-8, 8))
            dev = float(np.abs(evolve(spectral, xi, t).amps - evolve_product(xi, t).amps).max())
            worst_pair = max(worst_pair, dev)
            if dev > 1e-10:
                failures.append(f"L={L} t={t}: spectral/product deviation {dev}")
    _report(
        9,
        "engine triangulation",
        failures,
        f"max three-engine deviation {worst_triple:.2e}, "
        f"max spectral/product deviation {worst_pair:.2e}",
    )


def test_criterion_10_performance():
    # the vacuum takes the gathered class table of a basis start; a dense
    # state takes the per-bit sweep under the same budget.  Both run in a
    # fresh process, whose own peak is the one bounded
    code = """
import json, time
import numpy as np
from hyperwalk import EvolutionEngine, Level, distribution_at, vacuum_state
from helpers import random_state
lv = Level(20)
engine = EvolutionEngine(lv)
runs = []
for name, initial in (("vacuum", vacuum_state(lv)), ("dense", random_state(lv, np.random.default_rng(1010)))):
    start = time.perf_counter()
    dist = distribution_at(engine, initial, 0.7853981633974483)
    runs.append([name, time.perf_counter() - start, float(dist.probs.sum())])
print(json.dumps(runs))
"""
    proc = start_measured(code, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate()
    assert proc.returncode == 0, err.decode()
    failures = []
    timings = []
    for name, elapsed, total in json.loads(out):
        timings.append(f"{name} {elapsed:.2f}s")
        if elapsed >= 5.0:
            failures.append(f"{name}: evolve plus distribution took {elapsed:.2f}s")
        if abs(total - 1.0) > 1e-10:
            failures.append(f"{name}: distribution does not sum to 1")
    peak = peak_kib(err)
    if peak >= 1024 * 1024:
        failures.append(f"peak memory {peak / 1024:.0f} MiB")
    _report(
        10,
        "performance",
        failures,
        f"{', '.join(timings)} for {Level(20).dim} amplitudes, peak rss {peak / 1024:.0f} MiB",
    )
