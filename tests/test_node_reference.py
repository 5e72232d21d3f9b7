"""Node-start tables against the decimal reference, value by value.

Every amplitude of basis_start_classes is gated by |x - r| / |r|, every
fidelity, abs of the amplitude as pst prints it, by its relative error to
the square root of the reference probability, and every probability,
operators.probability of the amplitude, by its relative error, where r comes
from helpers.reference_node_table: the exact binary time in decimal, with no
libm and nothing of the library.
"""

import math
import sys
from decimal import Decimal
from operator import itemgetter

import numpy as np
import pytest

from hyperwalk import Level
from hyperwalk.operators import probability
from hyperwalk.spectral import basis_start_classes

from helpers import reference_node_table, relative_error

LEVELS = [0, 1, 9, 16, 24]
_draws = np.random.default_rng(36)
# near the multiples of pi/2, where cos t or sin t is small; the largest
# floats; then seeded uniform and log-uniform draws
REFERENCE_TIMES = (
    [0.0] + [10.0**-k for k in range(1, 16)]
    + [j * math.pi / 2 + e * 10.0**-k for j in (1, 2, 3) for e in (-1, 1) for k in (1, 4, 8, 12, 15)]
    + [1e15, 8.98e307, -8.98e307, sys.float_info.max, -sys.float_info.max]
    + _draws.uniform(-4, 4, 40).tolist() + (10.0 ** _draws.uniform(-8, 15, 40)).tolist()
)
# the gates compare |amplitude|**2 with these: every amplitude of the normal
# float range, and every probability above the underflow range, is gated;
# below them a float keeps fewer digits than the bounds assume
AMPLITUDE_FLOOR = Decimal(sys.float_info.min) ** 2
PROBABILITY_FLOOR = Decimal("1e-290")
# the worst amplitude measured is 2.97e-15 (L = 24, t = 1e15, d = 0); the
# bound leaves a margin of 1.7 for other libms' cos and sin
AMPLITUDE_BOUND = 5e-15
# the worst fidelity measured is 2.76e-15 (L = 24, t = 1e15, d = 0); the
# bound leaves a margin of 1.8 for other libms' cos and sin
FIDELITY_BOUND = 5e-15
# one bound over the levels, below the worst of the former (1 +- e^{2it})/2
# tables on these times, 5.91e-15 (L = 24); the worst measured is 5.42e-15
# (L = 24, t = 1e15, d = 0)
PROBABILITY_BOUND = 5.9e-15


@pytest.mark.parametrize("L", LEVELS)
def test_node_tables_match_the_decimal_reference(L):
    # the worst relative errors, each with its time and distance
    worst_amp = worst_fid = worst_prob = (0.0, None, None)
    for t in REFERENCE_TIMES:
        table = basis_start_classes(Level(L), 0, t).table
        for d, (amp, (re, im, p)) in enumerate(zip(table, reference_node_table(L + 1, t))):
            if p > AMPLITUDE_FLOOR:
                worst_amp = max(worst_amp, (relative_error(amp, re, im), t, d), key=itemgetter(0))
                worst_fid = max(worst_fid, (relative_error(abs(amp), p.sqrt()), t, d), key=itemgetter(0))
            if p > PROBABILITY_FLOOR:
                worst_prob = max(worst_prob, (relative_error(probability(amp), p), t, d), key=itemgetter(0))
    assert worst_amp[0] <= AMPLITUDE_BOUND, worst_amp
    assert worst_fid[0] <= FIDELITY_BOUND, worst_fid
    assert worst_prob[0] <= PROBABILITY_BOUND, worst_prob


# ints that no float holds, numpy's among them: each is evaluated at its own
# value, not at the float nearest it (at 10**17 + 1, cos read -0.8856, not
# -0.0876).  The time is reduced exactly, then rounded once to the float x
# nearest t - 2 pi k, an error the amplitudes multiply by up to m / |cos x|:
# the worst amplitude and fidelity measured are 1.69e-14 and the worst
# probability 3.38e-14 (L = 24, t = 10**17 + 1, x = -1.658, d = 0); the
# bounds leave a margin of 1.8
INT_TIMES = [2**53 + 1, 10**17 + 1, 3**40, 2**1023 + 1, np.int64(2**60 + 1)]
INT_AMPLITUDE_BOUND = 3e-14
INT_PROBABILITY_BOUND = 6e-14


@pytest.mark.parametrize("t", INT_TIMES, ids=["2**53+1", "10**17+1", "3**40", "2**1023+1", "int64(2**60+1)"])
@pytest.mark.parametrize("L", LEVELS)
def test_int_times_match_the_decimal_reference(L, t):
    table = basis_start_classes(Level(L), 0, t).table
    for d, (amp, (re, im, p)) in enumerate(zip(table, reference_node_table(L + 1, int(t)))):
        if p > AMPLITUDE_FLOOR:
            assert relative_error(amp, re, im) <= INT_AMPLITUDE_BOUND, d
            assert relative_error(abs(amp), p.sqrt()) <= INT_AMPLITUDE_BOUND, d
        if p > PROBABILITY_FLOOR:
            assert relative_error(probability(amp), p) <= INT_PROBABILITY_BOUND, d
