"""A seeded fuzzer for the library's entry points, like the command line's
in test_cli.py: every call either refuses its input with ValueError
(TypeError for a time that is not a real number) or matches the
product-state oracles of helpers.py within their pinned tolerance."""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from hyperwalk import (
    EvolutionEngine,
    Level,
    basis_state,
    closed_form_distribution,
    closed_form_pt,
    distribution_at,
    evolve,
    is_symmetric,
    pst_check,
    time_average,
)
from hyperwalk.operators import NORM_TOL

from helpers import evolve_product, product_state_amplitudes, random_state

TOL = 1e-12  # the oracles' pinned tolerance, on amplitudes, probabilities and sums
EPS = float(np.finfo(float).eps)
# times the library evaluates, refuses with ValueError, or refuses with TypeError
TIMES = {
    "good": [0.0, -0.0, 5e-324, 0.7, -2.5, 1e15, -1e15, 8.98e307, math.nextafter(sys.float_info.max / 2, math.inf),
             -1e308, sys.float_info.max, -sys.float_info.max, True, np.float64(0.7), np.int64(3), 2**60,
             10**17 + 1],
    "bad": [math.inf, -math.inf, math.nan, 2**1024, 10**400, -(10**400)],
    "unreal": [1j, complex(0.7, 0.0), "1.0", None],
}
# nodes pst_check and closed_form_pt take at L = 2 or more, and refuse with ValueError
BAD_NODES = [-1, 1 << 30, True, 1.0, "1"]


def _start(rng, lv):
    """A start and whether it is normalized by construction (None: a
    squared norm a few ulps from 1 ± NORM_TOL, which is_normalized decides)."""
    sigma, angle = rng.randrange(lv.dim), rng.uniform(0, 2 * math.pi)
    phase = complex(math.cos(angle), math.sin(angle))
    edge = math.sqrt(1 + rng.choice([-1, 1]) * NORM_TOL + rng.randint(-4, 4) * EPS)
    off = math.sqrt(1 + rng.choice([-1e-11, 1e-11, 1.25, -1]))
    kind = rng.choice(["one-hot", "one-hot edge", "one-hot off", "dense", "dense edge", "dense off", "non-finite", "subnormal"])
    scale = {"edge": edge, "off": off}.get(kind.split()[-1], 1.0)
    start, normalized = basis_state(lv, sigma), kind in ("one-hot", "dense", "subnormal")
    start.amps[sigma] = phase * scale
    if kind.startswith("dense"):
        start.amps[:] = random_state(lv, np.random.default_rng(rng.randrange(1 << 30))).amps * scale
    elif kind == "non-finite":
        start.amps[rng.randrange(lv.dim)] = rng.choice([math.nan, math.inf, complex(math.nan, 0.5)])
    elif kind == "subnormal":  # one-hot plus a subnormal: the kernel's start
        start.amps[sigma ^ 1] = 5e-324
    return start, None if kind.endswith("edge") else normalized


def _call(name, lv, engine, start, t, method, sigma, tau):
    return {
        "evolve": lambda: evolve(engine, start, t),
        "distribution_at": lambda: distribution_at(engine, start, t),
        "time_average": lambda: time_average(start, method, engine),
        "pst_check": lambda: pst_check(sigma, tau, t, engine),
        "closed_form_pt": lambda: closed_form_pt(sigma, t, lv),
        "closed_form_distribution": lambda: closed_form_distribution(lv, t),
    }[name]()


def _check_distribution(dist, want, squared_norm):
    assert np.abs(dist.probs - want).max() <= TOL
    assert abs(dist.probs.sum() - squared_norm) <= TOL
    assert is_symmetric(dist).max_deviation == np.abs(dist.probs - dist.probs[::-1]).max()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_fuzzed_library_calls_refuse_or_match_the_oracle():
    # seeded levels, starts, times, nodes and engines; a call refuses exactly
    # when one of its inputs is bad, a start exactly when is_normalized is
    # False (the kernel's first pass may warn of the non-finite values it
    # reads before the refusal).  Each refused one-hot start reruns at
    # L = 18 under tracemalloc: it is refused after one_hot_node's byte
    # mask, before any complex array of the state's size is built
    rng, reruns, outcomes = random.Random(14), [], {"returned": 0, "ValueError": 0, "TypeError": 0}
    for _ in range(1000):
        lv = Level(rng.randint(0, 6))
        start, normalized = _start(rng, lv)
        if normalized is not None:
            assert start.is_normalized() is normalized, start.amps
        one_hot = np.count_nonzero(start.amps) == 1
        time_kind = rng.choice(["good", "good", "good", "bad", "unreal"])
        t = rng.uniform(-10, 10) if time_kind == "good" and rng.random() < 0.5 else rng.choice(TIMES[time_kind])
        engine_level = lv if rng.random() < 0.9 else Level((lv.L + 1) % 7)
        engine = EvolutionEngine(engine_level)
        method = rng.choice(["quadrature", "quadrature", "krawtchouk"])
        sigma, tau = (rng.choice(BAD_NODES) if rng.random() < 0.1 else rng.randrange(lv.dim) for _ in range(2))
        name = rng.choice(["evolve", "distribution_at", "time_average", "pst_check", "closed_form_pt", "closed_form_distribution"])
        # the inputs each call reads, and whether they are good; pst_check
        # reads its nodes on the engine's level
        level = engine_level if name == "pst_check" else lv
        good_time = name == "time_average" or time_kind == "good"
        good_nodes = {"pst_check": (sigma, tau), "closed_form_pt": (sigma,)}.get(name, ())
        good_nodes = all(isinstance(g, int) and not isinstance(g, bool) and 0 <= g < level.dim for g in good_nodes)
        takes_start = name in ("evolve", "distribution_at", "time_average")
        good_level = not takes_start or engine_level == lv
        good_method = name != "time_average" or method == "quadrature" or one_hot
        good_start = not takes_start or start.is_normalized()
        case = (name, lv.L, t, start.amps[:4], engine_level.L, method, sigma, tau)
        try:
            got = _call(name, lv, engine, start, t, method, sigma, tau)
        except TypeError:
            assert time_kind == "unreal" and name != "time_average", case
            outcomes["TypeError"] += 1
            continue
        except ValueError as err:
            assert not (good_time and good_nodes and good_level and good_method and good_start), case
            if good_time and good_nodes and good_level and good_method and not good_start:
                assert str(err) == f"initial state is not normalized (norm {start.norm()!r})", case
            if takes_start and one_hot and good_level:
                reruns.append((name, start.amps[start.amps != 0][0], int(np.flatnonzero(start.amps)[0]), t, good_time, method))
            outcomes["ValueError"] += 1
            continue
        assert good_time and good_nodes and good_level and good_method and good_start, case
        outcomes["returned"] += 1
        squared = start._squared_norm()
        if name == "evolve":
            assert np.abs(got.amps - evolve_product(start, t).amps).max() <= TOL, case
            assert abs(got._squared_norm() - squared) <= TOL, case
        elif name == "distribution_at":
            want = np.abs(evolve_product(start, t).amps) ** 2
            _check_distribution(got, want, squared)
            assert got.time == float(t), case
        elif name == "time_average":
            m = 2 * lv.L + 4
            want = sum(np.abs(evolve_product(start, j * math.pi / m).amps) ** 2 for j in range(m)) / m
            _check_distribution(got, want, squared)
            assert got.method == ("krawtchouk" if one_hot else "quadrature"), case
        elif name == "pst_check":
            assert abs(got - abs(product_state_amplitudes(level.L, sigma, t)[tau])) <= TOL, case
        elif name == "closed_form_pt":
            assert abs(got - abs(product_state_amplitudes(lv.L, 0, t)[sigma]) ** 2) <= TOL, case
        else:
            _check_distribution(got, np.abs(product_state_amplitudes(lv.L, 0, t)) ** 2, 1.0)
    assert min(outcomes.values()) >= 50, outcomes
    assert len(reruns) >= 50, len(reruns)
    lv = Level(18)
    tracemalloc.start()
    try:
        for name, amp, sigma, t, good_time, method in reruns:
            start = basis_state(lv, sigma)
            start.amps[sigma] = amp
            if good_time and start.is_normalized():
                continue  # an edge start the longer run's vdot rounds the other way
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                _call(name, lv, EvolutionEngine(lv), start, t, method, sigma, sigma)
            except (TypeError, ValueError):
                pass
            else:
                raise AssertionError((name, amp, sigma, t))
            assert tracemalloc.get_traced_memory()[1] - before < start.amps.nbytes // 8, (name, amp, t)
    finally:
        tracemalloc.stop()
