"""Seeded inputs: nodes, evolution times and product-state factors.

Every op of a run is drawn from one generator seeded by (seed, workload), so a
seed names the same ops on every commit.  Timed ops take a time uniform in
[0, pi), the first period.  Times log-uniform in [pi, 1e12], the regime where
a phase error that grows with t shows, are drawn on a stream of their own for
the large-t probe (see workloads.large_t_probe).
"""

from __future__ import annotations

import math

import numpy as np

from oracle import kron_all

LARGE_T_MAX = 1e12
STATES_PER_OP = 4


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def node(rng: np.random.Generator, L: int) -> int:
    return int(rng.integers(0, 1 << (L + 1)))


def node_arg(sigma: int) -> str:
    """Node as the CLI reads it: comma-separated elements, "" for the empty set."""
    return ",".join(str(k) for k in range(sigma.bit_length()) if sigma >> k & 1)


def node_label(sigma: int) -> str:
    """Node as the CLI writes it: the elements in braces."""
    return "{" + node_arg(sigma) + "}"


def time(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, math.pi))


def large_times(rng: np.random.Generator, count: int) -> list[float]:
    logs = rng.uniform(math.log(math.pi), math.log(LARGE_T_MAX), count)
    return [float(math.exp(x)) for x in logs]


def product_states(rng: np.random.Generator, L: int) -> np.ndarray:
    """STATES_PER_OP product states, shape (n, L+1, 2), unit-norm complex factors.

    Gaussian factors leave no amplitude of the sum at zero.
    """
    shape = (STATES_PER_OP, L + 1, 2)
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    return states


def superposition(states: np.ndarray) -> np.ndarray:
    """Normalized sum of the product states, as a dense amplitude array."""
    psi = kron_all(states[0])
    for s in states[1:]:
        psi += kron_all(s)
    psi /= np.linalg.norm(psi)
    return psi
