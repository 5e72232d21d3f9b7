import itertools
import pickle
import sys

import numpy as np
import pytest

from hyperwalk import (
    EvolutionEngine,
    Level,
    StateVector,
    apply_hat_involution,
    apply_involution,
    apply_involution_product,
    basis_state,
    closed_form_pt,
    distribution_at,
    elements,
    format_node,
    parse_node,
    pst_check,
    vacuum_state,
)
from hyperwalk.subsets import element_strings, natural

from helpers import complement, is_adjacent, random_state, setminus_card


def test_level_derived_fields():
    lv = Level(3)
    assert lv.dim == 16
    assert lv.full_mask == 0b1111
    assert lv.full_mask.bit_count() == 4


def test_level_is_an_immutable_value():
    lv = Level(3)
    assert lv == Level(3) == Level(L=3) == pickle.loads(pickle.dumps(lv))
    assert lv != Level(4)
    assert hash(lv) == hash(Level(3))
    assert len({Level(3), Level(3), Level(4)}) == 2
    assert repr(lv) == "Level(L=3)"
    for name in ("L", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(lv, name, 4)
    with pytest.raises(AttributeError):
        del lv.L
    assert lv.L == 3 and lv.dim == 16


@pytest.mark.parametrize("bad", [-1, 25])
def test_level_rejects_out_of_cap(bad):
    with pytest.raises(ValueError):
        Level(bad)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (Level, (True,), "L must be an integer"),
        (Level, (3.0,), "L must be an integer"),
        (Level, ("3",), "L must be an integer"),
        (Level, (np.True_,), "L must be an integer"),
        (Level, (np.float64(3.0),), "L must be an integer"),
        (Level(2).validate_node, (True,), "node must be an integer bitmask"),
        (Level(2).validate_node, (1.0,), "node must be an integer bitmask"),
        (Level(2).validate_node, (np.True_,), "node must be an integer bitmask"),
        (Level(2).validate_node, ("1",), "node must be an integer bitmask"),
        (apply_involution, (True, vacuum_state(Level(2))), "flip index must be an integer"),
        (apply_involution, (1.0, vacuum_state(Level(2))), "flip index must be an integer"),
        (apply_involution, (np.False_, vacuum_state(Level(2))), "flip index must be an integer"),
        (elements, (-1,), "nonnegative"),
        *((call, (bad,), "node mask must be an integer") for call in (elements, format_node) for bad in (5.0, "5", True, np.True_)),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else getattr(v, "__name__", None),
)
def test_levels_nodes_and_masks_of_the_wrong_kind_are_refused(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.intp], ids=["int64", "uint8", "intp"])
def test_numpy_integers_are_read_as_the_python_ints(kind):
    # a level, a node or a flip index that numpy hands back (np.argmax of a
    # distribution, say) is read by __index__: the Python int's bits
    lv, node = Level(kind(3)), kind(5)
    assert lv == Level(3) and type(lv.L) is int and type(lv.validate_node(node)) is int
    assert elements(node) == elements(5) == [0, 2] and format_node(node) == "{0,2}"
    state = random_state(lv, np.random.default_rng(3))
    pairs = [
        (basis_state(lv, node), basis_state(lv, 5)),
        (apply_involution(kind(2), state), apply_involution(2, state)),
        (apply_involution_product(node, state), apply_involution_product(5, state)),
        (apply_hat_involution(node, state), apply_hat_involution(5, state)),
    ]
    for got, want in pairs:
        assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))
    engine = EvolutionEngine(lv)
    assert pst_check(node, kind(10), 0.7, engine).hex() == pst_check(5, 10, 0.7, engine).hex()
    assert closed_form_pt(node, 0.7, lv).hex() == closed_form_pt(5, 0.7, lv).hex()
    # the round trip from a distribution's peak back to a start
    peak = np.argmax(distribution_at(engine, basis_state(lv, 5), 0.0).probs)
    assert np.array_equal(basis_state(lv, kind(peak)).amps, basis_state(lv, 5).amps)


def test_level_env_override(monkeypatch):
    monkeypatch.setenv("HYPERWALK_L_MAX", "4")
    with pytest.raises(ValueError):
        Level(5)
    assert Level(4).dim == 32


@pytest.mark.parametrize("raw", ["abc", "-3", "1_0", "+3", "-0", "\u0663"])
def test_malformed_env_cap_is_named_in_the_error(monkeypatch, raw):
    monkeypatch.setenv("HYPERWALK_L_MAX", raw)
    with pytest.raises(ValueError, match="HYPERWALK_L_MAX must be a nonnegative integer"):
        Level(1)


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12])
def test_element_strings_match_format_node(n):
    assert ["{" + e + "}" for e in element_strings(n)] == [format_node(s) for s in range(1 << n)]


def symmetric_differences(lv):
    """table[s][t] is the node that apply_involution_product(s, .) carries node t to."""
    labels = StateVector(lv, np.arange(lv.dim))
    return [apply_involution_product(s, labels).amps.real.astype(int).tolist() for s in range(lv.dim)]


@pytest.mark.parametrize(
    "sigma, expected",
    [(0, 0), (0b11, 2), (0b101, 2)],
)
def test_cardinality(sigma, expected):
    assert len(elements(sigma)) == expected


def test_symmetric_difference_examples():
    table = symmetric_differences(Level(2))
    assert table[0b01][0b11] == 0b10
    assert table[0b101][0b101] == 0
    assert table[0][0b110] == 0b110


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_symmetric_difference_group_laws_exhaustive(L):
    dim = Level(L).dim
    table = symmetric_differences(Level(L))
    for a in range(dim):
        assert table[0][a] == a
        assert table[a][a] == 0
    # associativity over every triple
    for a, b, c in itertools.product(range(dim), repeat=3):
        assert table[c][table[b][a]] == table[table[c][b]][a]


@pytest.mark.parametrize("L", [0, 2, 4])
def test_symmetric_difference_cardinality_split(L):
    lv = Level(L)
    table = symmetric_differences(lv)
    for a in range(lv.dim):
        for b in range(lv.dim):
            split = setminus_card(a, b, lv.full_mask) + setminus_card(b, a, lv.full_mask)
            assert len(elements(table[a][b])) == split
            assert is_adjacent(a, b) == (split == 1)


def test_complement_examples():
    assert complement(0, Level(2)) == 0b111
    assert complement(0b01, Level(1)) == 0b10


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_complement_is_a_bijective_involution(L):
    lv = Level(L)
    images = [complement(s, lv) for s in range(lv.dim)]
    assert sorted(images) == list(range(lv.dim))
    for s in range(lv.dim):
        assert complement(complement(s, lv), lv) == s


def test_complement_rejects_out_of_range():
    with pytest.raises(ValueError):
        complement(4, Level(1))


def test_parse_node_accepted_forms():
    lv = Level(3)
    assert parse_node("", lv) == 0
    assert parse_node("∅", lv) == 0
    assert parse_node("{}", lv) == 0
    assert parse_node("0,2", Level(2)) == 0b101
    assert parse_node("{0,2}", Level(2)) == 0b101
    assert parse_node(" 2 , 0 ", Level(2)) == 0b101


# int() spellings that are not ASCII digits ("٣" is an Arabic-Indic 3) at a
# level where their values would be in range
BAD_NODES = [*[(text, 2) for text in ("5", "0,0", "0,,1", "a", "0;1", "-1")], *[(text, 12) for text in ("1_0", "+1", "-0", "٣")]]


@pytest.mark.parametrize("text, L", BAD_NODES, ids=[text for text, _ in BAD_NODES])
def test_parse_node_rejects_bad_input(text, L):
    with pytest.raises(ValueError):
        parse_node(text, Level(L))


def test_natural_drops_leading_zeros_and_names_a_long_integer_by_its_digits(monkeypatch):
    assert natural("0" * 5000 + "1") == 1
    assert natural("0" * 5000) == natural("0") == 0
    assert parse_node("0" * 5000 + "2, 0", Level(2)) == 0b101
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads any number of digits here")
    assert natural("0" * 9 + "7" * limit) == int("7" * limit)
    long = "0" + "7" * (limit + 1)
    message = f"^an integer of {limit + 1} digits is beyond int\\(\\)'s digit limit$"
    with pytest.raises(OverflowError, match=message):
        natural(long)
    with pytest.raises(OverflowError, match=message):
        parse_node(long, Level(2))
    monkeypatch.setenv("HYPERWALK_L_MAX", long)
    with pytest.raises(OverflowError, match=message):
        Level(1)


def test_format_node_canonical():
    assert format_node(0) == "{}"
    assert format_node(0b101) == "{0,2}"
    assert elements(0b1011) == [0, 1, 3]


@pytest.mark.parametrize("L", [0, 2, 4])
def test_parse_format_round_trip(L):
    lv = Level(L)
    for sigma in range(lv.dim):
        assert parse_node(format_node(sigma), lv) == sigma
