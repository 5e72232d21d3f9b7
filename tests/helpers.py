"""Shared test oracles: literal-definition implementations kept independent
of the library's fast paths."""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np
import pytest

import hyperwalk
from hyperwalk import (
    EvolutionEngine,
    Level,
    StateVector,
    basis_state,
    distribution_at,
    format_node,
)
from hyperwalk.formatting import format_float

PAIR_SUM_MAX_LEVEL = 7

# fixed large times, then seeded log-uniform ones up to 1e15; those carry a
# fractional part, so j*t rounds for small integers j
LARGE_TIMES = [1e6, 1e9, 1e12, 1e15] + [
    float(10**u) for u in np.random.default_rng(7).uniform(6, 15, size=8)
]


def popcount(x: int) -> int:
    return bin(x).count("1")


def setminus_card(a: int, b: int, full: int) -> int:
    """Cardinality of (a minus b) inside the ground set mask."""
    return popcount(a & ~b & full)


def operator_matrix(op, level: Level) -> np.ndarray:
    """Dense matrix of an operator function in the node basis, column by
    column: entry [tau, sigma] is the coefficient on node tau of op applied
    to the one-hot state at sigma."""
    return np.column_stack([op(basis_state(level, sigma)).amps for sigma in range(level.dim)])


def is_adjacent(a: int, b: int) -> bool:
    """The hypercube's adjacency by definition: the masks differ in exactly one bit."""
    return (a ^ b).bit_count() == 1


def neighborhood(sigma: int, level: Level) -> list[int]:
    """All L+1 neighbors of a node, ascending by bitmask."""
    level.validate_node(sigma)
    return sorted(sigma ^ (1 << k) for k in range(level.L + 1))


def complement(sigma: int, level: Level) -> int:
    """{0, ..., L} minus sigma.  An involution on [0, dim)."""
    level.validate_node(sigma)
    return level.full_mask ^ sigma


def adjacency_matrix(level: Level) -> np.ndarray:
    """0/1 adjacency matrix of the hypercube from is_adjacent, pair by pair."""
    nodes = range(level.dim)
    return np.array([[int(is_adjacent(a, b)) for b in nodes] for a in nodes], dtype=np.int64)


def graph_laplacian_matrix(level: Level) -> np.ndarray:
    """Integer graph Laplacian: the degree L+1 on the diagonal minus adjacency."""
    return (level.L + 1) * np.eye(level.dim, dtype=np.int64) - adjacency_matrix(level)


@lru_cache(maxsize=None)
def literal_kernel_matrix(L: int) -> np.ndarray:
    """Unnormalized signed basis kernel, entry [gamma, sigma] = (-1)**#(gamma minus sigma).

    Column sigma, divided by sqrt(dim), is the literal signed basis vector.
    Built with Python loops so it shares nothing with the butterfly code.
    """
    dim = 1 << (L + 1)
    full = dim - 1
    mat = np.empty((dim, dim), dtype=np.int64)
    for gamma in range(dim):
        for sigma in range(dim):
            mat[gamma, sigma] = (-1) ** setminus_card(gamma, sigma, full)
    return mat


def phase_powers(t: float, m: int) -> np.ndarray:
    """z**j for j = 0..m, with z = exp(2it) on the unreduced t, by repeated
    multiplication: the eigenvalue 2j evolves by the phase z**j."""
    z = cmath.exp(2j * t)
    powers = np.empty(m + 1, dtype=np.complex128)
    w = 1.0 + 0.0j
    for j in range(m + 1):
        powers[j] = w
        w *= z
    return powers


def phases_by_index(level: Level, t: float) -> np.ndarray:
    """exp(i t eigenvalue) at every eigenbasis index: z**(m - popcount(s))."""
    m = level.L + 1
    cards = np.bitwise_count(np.arange(level.dim, dtype=np.uint64))
    return phase_powers(t, m)[m - cards]


def apply_phases(coeffs: StateVector, t: float) -> None:
    """Multiply every eigenbasis coefficient by exp(i t eigenvalue), in place:
    coefficient s takes z**(m - popcount(s))."""
    coeffs.amps *= phases_by_index(coeffs.level, t)


def _literal_basis(level: Level) -> np.ndarray:
    """Orthogonal matrix whose column s is the literal signed basis vector s,
    of eigenvalue 2(m - popcount(s))."""
    return literal_kernel_matrix(level.L) / math.sqrt(level.dim)


def materialize_unitary(level: Level, t: float) -> np.ndarray:
    """Dense evolution unitary at time t: the literal signed basis, scaled by
    its phases, times its transpose."""
    basis = _literal_basis(level)
    return (basis * phases_by_index(level, t)[None, :]) @ basis.T


def evolve_dense(initial: StateVector, t: float) -> StateVector:
    """materialize_unitary(level, t) applied to the state, as the two dense
    changes of basis around the phases, O(dim**2) instead of O(dim**3)."""
    basis = _literal_basis(initial.level)
    coeffs = phases_by_index(initial.level, t) * (basis.T @ initial.amps)
    return StateVector(initial.level, basis @ coeffs)


def evolve_product(initial: StateVector, t: float) -> StateVector:
    """The walk as the literal product of its commuting one-element factors,
    each acting as e^{it} (cos t - i sin t * flip of its bit)."""
    cos_t, sin_t = cos_sin(t)
    phase = complex(cos_t, sin_t)
    idx = np.arange(initial.level.dim)
    out = initial.amps
    for k in range(initial.level.L + 1):
        out = phase * (cos_t * out - 1j * sin_t * out[idx ^ (1 << k)])
    return StateVector(initial.level, out)


@lru_cache(maxsize=None)
def pm1_kernel_matrix(L: int) -> np.ndarray:
    """Plain ±1 tensor-product kernel, entry [s, g] = (-1)**popcount(s & g),
    built with Python loops."""
    dim = 1 << (L + 1)
    mat = np.empty((dim, dim), dtype=np.int64)
    for s in range(dim):
        for g in range(dim):
            mat[s, g] = (-1) ** popcount(s & g)
    return mat


def pm1_transform(a: np.ndarray) -> np.ndarray:
    """Unnormalized ±1 transform: out[s] = sum over g of (-1)**popcount(s & g) * a[g]."""
    return pm1_kernel_matrix(len(a).bit_length() - 2) @ a


def literal_hat_apply(sigma: int, state: StateVector) -> np.ndarray:
    """Sum over all subsets g of (-1)**#(g minus sigma) times the XOR-by-g relabeling."""
    dim = state.level.dim
    full = state.level.full_mask
    idx = np.arange(dim, dtype=np.intp)
    out = np.zeros(dim, dtype=np.complex128)
    for gamma in range(dim):
        out += (-1) ** setminus_card(gamma, sigma, full) * state.amps[idx ^ gamma]
    return out


def literal_vacuum_prob(sigma: int, t: float, L: int) -> float:
    """Vacuum-start occupation probability of sigma at time t, by the literal
    sum over all subsets (no cardinality grouping)."""
    dim = 1 << (L + 1)
    full = dim - 1
    z = sum(
        (-1) ** setminus_card(sigma, gamma, full)
        * cmath.exp(2j * (L + 1 - popcount(gamma)) * t)
        for gamma in range(dim)
    )
    return abs(z) ** 2 / dim**2


def literal_time_average(sigma: int, L: int) -> float:
    """Vacuum-start time average of sigma by the literal double loop over
    equal-cardinality subset pairs."""
    dim = 1 << (L + 1)
    full = dim - 1
    total = 0
    for g1 in range(dim):
        for g2 in range(dim):
            if popcount(g1) == popcount(g2):
                total += (-1) ** (
                    setminus_card(sigma, g1, full) + setminus_card(sigma, g2, full)
                )
    return total / dim**2


def vacuum_average_value(L: int) -> Fraction:
    """Exact period average of the empty node (and of the full node) from the
    vacuum: (2L+1)!!/(2L+2)!!, as the literal double-factorial products."""
    return Fraction(math.prod(range(1, 2 * L + 2, 2)), math.prod(range(2, 2 * L + 3, 2)))


def pair_sum_average(level: Level) -> np.ndarray:
    """Vacuum-start time average by the double sum over pairs of
    equal-cardinality subsets, vectorized over each class; gated to
    L <= PAIR_SUM_MAX_LEVEL."""
    if level.L > PAIR_SUM_MAX_LEVEL:
        raise ValueError(f"pair sum is gated to L <= {PAIR_SUM_MAX_LEVEL}, got L={level.L}")
    dim = level.dim
    full = np.uint64(level.full_mask)
    idx = np.arange(dim, dtype=np.uint64)
    cards = np.bitwise_count(idx)
    classes = [idx[cards == k] for k in range(level.L + 2)]
    probs = np.empty(dim, dtype=np.float64)
    scale = float(dim) ** 2
    for sigma in range(dim):
        total = 0
        for members in classes:
            diff = np.uint64(sigma) & ~members & full
            signs = 1 - 2 * (np.bitwise_count(diff).astype(np.int64) & 1)
            total += int(np.outer(signs, signs).sum())
        probs[sigma] = total / scale
    return probs


@lru_cache(maxsize=None)
def cardinality_sign_sums(L: int) -> tuple[tuple[int, ...], ...]:
    """Krawtchouk table.  Row s, column k: integer sum of
    (-1)**popcount(node minus g) over all subsets g of fixed cardinality k,
    for any node of cardinality s.

    Splitting g into j elements inside the node and k-j outside gives the
    binomial convolution sum_j (-1)**(s-j) C(s, j) C(L+1-s, k-j).
    """
    m = L + 1
    table = []
    for s in range(m + 1):
        row = []
        for k in range(m + 1):
            total = 0
            for j in range(max(0, k - (m - s)), min(s, k) + 1):
                total += (-1) ** (s - j) * math.comb(s, j) * math.comb(m - s, k - j)
            row.append(total)
        table.append(tuple(row))
    return tuple(table)


def krawtchouk_vacuum_probs(L: int, t: float) -> np.ndarray:
    """Vacuum-start distribution at time t from the Krawtchouk table: the
    squared magnitude of the cardinality-grouped eigenphase sum, per node."""
    m = L + 1
    z = cmath.exp(2j * t)
    powers = [z**j for j in range(m + 1)]
    by_card = [
        abs(sum(row[k] * powers[m - k] for k in range(m + 1))) ** 2 / 4.0**m
        for row in cardinality_sign_sums(L)
    ]
    return np.array([by_card[popcount(g)] for g in range(1 << m)])


def krawtchouk_average_by_card(L: int) -> list[float]:
    """Vacuum-start period average per node cardinality from the Krawtchouk
    table: the sum of squared sign sums over dim**2."""
    return [float(sum(a * a for a in row)) / 4.0 ** (L + 1) for row in cardinality_sign_sums(L)]


def quadrature_oracle(
    initial: StateVector, engine: EvolutionEngine | None = None, points: int | None = None
) -> np.ndarray:
    """The quadrature time average as the literal loop: the pointwise
    distribution summed over `points` equispaced times in [0, pi), then
    divided by their number: by default L+2, the fewest that are exact."""
    level = initial.level
    engine = engine or EvolutionEngine(level)
    m = level.L + 2 if points is None else points
    acc = np.zeros(level.dim, dtype=np.float64)
    for j in range(m):
        acc += distribution_at(engine, initial, j * math.pi / m).probs
    return acc / m


@lru_cache(maxsize=None)
def _laplacian_eigh(L: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(graph_laplacian_matrix(Level(L)).astype(np.float64))


def evolve_via_eigh(initial: StateVector, t: float) -> np.ndarray:
    """exp(i t H) applied to the state's amplitudes, H the dense generator,
    through one LAPACK eigendecomposition per level; independent of the
    package's kernel and of the other oracles."""
    w, v = _laplacian_eigh(initial.level.L)
    return v @ (np.exp(1j * t * w) * (v.T @ initial.amps))


def eigenspace_average(initial: StateVector) -> np.ndarray:
    """The period average of the distribution as the sum over the generator's
    eigenspaces of |P_k psi|**2, P_k from one LAPACK eigendecomposition:
    distinct eigenvalues differ by nonzero even integers, so every cross
    term averages to zero over the period pi.  No quadrature enters."""
    w, v = _laplacian_eigh(initial.level.L)
    coeffs = v.T @ initial.amps
    space = np.rint(w / 2).astype(int)
    return sum(np.abs(v[:, space == k] @ coeffs[space == k]) ** 2 for k in np.unique(space))


def random_state(level: Level, rng: np.random.Generator) -> StateVector:
    """A normalized state of Gaussian amplitudes, scaled by StateVector.norm,
    which makes no call that wakes OpenBLAS's threads."""
    state = StateVector(level, rng.standard_normal(level.dim) + 1j * rng.standard_normal(level.dim))
    state.amps /= state.norm()
    return state


def product_state_amplitudes(L: int, sigma: int, t: float) -> np.ndarray:
    """Evolved amplitudes from node sigma by the product closed form.

    U(t) is the tensor product over elements of e^{it} (cos t - i sin t X), so
    amp[g] = e^{i m t} cos(t)**(m - d) (-i sin t)**d with d = popcount(g ^ sigma).
    Only cos t and sin t of the unreduced t enter, so it holds at any |t|.
    """
    m = L + 1
    cos_t, sin_t = cos_sin(t)
    phase = complex(cos_t, sin_t) ** m
    by_distance = [phase * cos_t ** (m - d) * (-1j * sin_t) ** d for d in range(m + 1)]
    return np.array([by_distance[popcount(g ^ sigma)] for g in range(1 << m)])


@lru_cache(maxsize=None)
def _decimal_pi(prec: int) -> Decimal:
    """pi to prec digits by Machin's formula,
    16 atan(1/5) - 4 atan(1/239), each atan by its alternating series."""
    tiny = Decimal(10) ** -(prec + 2)

    def atan_inverse(n: int) -> Decimal:
        total, power, k = Decimal(0), Decimal(1) / n, 0
        while power > tiny:
            total += (-1) ** k * power / (2 * k + 1)
            power /= n * n
            k += 1
        return total

    return 16 * atan_inverse(5) - 4 * atan_inverse(239)


def _decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """(cos x, sin x) at the context's precision: x reduced by the nearest
    multiple k of pi/2 to |r| <= pi/4, Taylor series on r up to the terms
    below sin r's last digit, then the quarter turn k mod 4."""
    half_pi = _decimal_pi(getcontext().prec) / 2
    k = (x / half_pi).to_integral_value()
    r = x - k * half_pi
    cos_r, sin_r, term, n = Decimal(0), Decimal(0), Decimal(1), 0
    tiny = abs(r) * Decimal(10) ** -(getcontext().prec + 2)  # below every term that counts
    while abs(term) > tiny:
        if n % 2:
            sin_r += term if n % 4 == 1 else -term
        else:
            cos_r += term if n % 4 == 0 else -term
        n += 1
        term = term * r / n
    return [(cos_r, sin_r), (-sin_r, cos_r), (-cos_r, -sin_r), (sin_r, -cos_r)][int(k % 4)]


def cos_sin(t: float) -> tuple[float, float]:
    """(cos t, sin t) at t's own value: libm's for a float or an int that a
    float holds, else _decimal_cos_sin's of the exact int, each rounded once."""
    if not hasattr(t, "__index__") or float(t) == int(t):
        return math.cos(t), math.sin(t)
    with localcontext() as ctx:
        ctx.prec = 40 + len(str(int(t)))
        cos_t, sin_t = _decimal_cos_sin(Decimal(int(t)))
        return float(cos_t), float(sin_t)


def reference_node_table(m: int, t: float) -> list[tuple[Decimal, Decimal, Decimal]]:
    """(re, im, |amp|**2) of the node-start amplitude e^{imt} cos(t)**(m-d)
    (-i sin t)**d at each distance d = 0..m, for the exact binary value of t,
    in decimal at 40 digits plus the decimal exponent of t: cos and sin of t
    and of mt by _decimal_cos_sin.  Independent of the library and of libm."""
    x = Decimal(t)
    with localcontext() as ctx:
        ctx.prec = 40 + max(x.adjusted(), 0) + len(str(m))
        cos_t, sin_t = _decimal_cos_sin(x)
        cos_mt, sin_mt = _decimal_cos_sin(m * x)
        cos_powers, sin_powers = [Decimal(1)], [Decimal(1)]  # Decimal refuses 0 ** 0
        for _ in range(m):
            cos_powers.append(cos_powers[-1] * cos_t)
            sin_powers.append(sin_powers[-1] * sin_t)
        table = []
        for d in range(m + 1):
            r = cos_powers[m - d] * sin_powers[d]
            # (-i)**d times e^{imt}: a quarter turn back per distance
            re, im = [(cos_mt, sin_mt), (sin_mt, -cos_mt), (-cos_mt, -sin_mt), (-sin_mt, cos_mt)][d % 4]
            table.append((r * re, r * im, r * r))
    return table


def relative_error(x: complex, re: Decimal, im: Decimal = Decimal(0)) -> float:
    """|x - r| / |r| for the float x and the reference r = re + i im."""
    with localcontext() as ctx:
        ctx.prec = 40
        dre, dim = Decimal(x.real) - re, Decimal(x.imag) - im
        return float(((dre * dre + dim * dim) / (re * re + im * im)).sqrt())


def reference_dumps_json(obj: Any) -> str:
    """The per-element JSON writer: every value through its own isinstance
    chain and format_float call."""
    out: list[str] = []
    _reference_write(obj, out)
    return "".join(out)


def _reference_write(obj: Any, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _reference_write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _reference_write(value, out)
        out.append("]")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_csv(header: str, columns: list[np.ndarray]) -> str:
    """The per-row CSV writer: format_node and format_float on every cell."""
    lines = [header]
    for sigma in range(len(columns[0])):
        cells = [f'"{format_node(sigma)}"'] + [format_float(float(c[sigma])) for c in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_same_text(actual: str, expected: str) -> None:
    """Exact equality of two documents.  A mismatch fails with the line and
    the text around the first differing character: pytest's own report of a
    failed ==, a diff of the whole strings, takes minutes on documents of
    thousands of lines."""
    if actual == expected:
        return
    lo, hi = 0, min(len(actual), len(expected))
    while lo < hi:  # the length of the longest common prefix, by bisection
        mid = (lo + hi) // 2
        if actual[: mid + 1] == expected[: mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    line = expected.count("\n", 0, lo) + 1
    around = slice(max(lo - 40, 0), lo + 40)
    pytest.fail(
        f"documents of {len(actual)} and {len(expected)} characters differ at character {lo}, "
        f"line {line}: {actual[around]!r} != {expected[around]!r}"
    )


# python -c _MEASURED CODE ARG... runs CODE with sys.argv[1:] = [ARG...], then
# writes the process's own peak resident set, VmHWM (which exec resets), as
# the last line of stderr.  ru_maxrss is no such measure: a child's includes
# the peak of the process that forked it, and RUSAGE_SELF is the peak of the
# whole test session.
_MEASURED = """
import sys
code = sys.argv.pop(1)
try:
    exec(compile(code, "<measured>", "exec"), {"__name__": "__main__"})
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def start_measured(code: str, *args: str, **popen: Any) -> subprocess.Popen:
    """A fresh interpreter that runs code on this checkout's sources, with
    these helpers importable and no HYPERWALK_L_MAX, and reports its own peak
    resident set for peak_kib."""
    env = {k: v for k, v in os.environ.items() if k != "HYPERWALK_L_MAX"}
    paths = [str(Path(hyperwalk.__file__).parents[1]), str(Path(__file__).parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.Popen([sys.executable, "-c", _MEASURED, code, *args], env=env, **popen)


def peak_kib(stderr: bytes) -> int:
    """The peak resident set in KiB that a start_measured child wrote last to stderr."""
    name, value, unit = stderr.splitlines()[-1].split()
    assert (name, unit) == (b"VmHWM:", b"kB"), stderr[-200:]
    return int(value)
