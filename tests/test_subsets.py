import itertools

import pytest

from hyperwalk import (
    Level,
    apply_involution,
    cardinality,
    complement,
    elements,
    format_node,
    is_adjacent,
    parse_node,
    symmetric_difference,
    vacuum_state,
)
from hyperwalk.subsets import element_strings

from helpers import popcount, setminus_card


def test_level_derived_fields():
    lv = Level(3)
    assert lv.dim == 16
    assert lv.full_mask == 0b1111
    assert cardinality(lv.full_mask) == 4


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
        (Level(2).validate_node, (True,), "node must be an integer bitmask"),
        (Level(2).validate_node, (1.0,), "node must be an integer bitmask"),
        (apply_involution, (True, vacuum_state(Level(2))), "flip index must be an integer"),
        (apply_involution, (1.0, vacuum_state(Level(2))), "flip index must be an integer"),
        (cardinality, (-1,), "nonnegative"),
        (symmetric_difference, (-1, 0), "nonnegative"),
        (symmetric_difference, (0, -1), "nonnegative"),
        (elements, (-1,), "nonnegative"),
        (is_adjacent, (-1, 0), "nonnegative"),
        (is_adjacent, (0, -1), "nonnegative"),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else getattr(v, "__name__", None),
)
def test_levels_nodes_and_masks_of_the_wrong_kind_are_refused(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_level_env_override(monkeypatch):
    monkeypatch.setenv("HYPERWALK_L_MAX", "4")
    with pytest.raises(ValueError):
        Level(5)
    assert Level(4).dim == 32


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_malformed_env_cap_is_named_in_the_error(monkeypatch, raw):
    monkeypatch.setenv("HYPERWALK_L_MAX", raw)
    with pytest.raises(ValueError, match="HYPERWALK_L_MAX must be a nonnegative integer"):
        Level(1)


@pytest.mark.parametrize("n", [0, 1, 2, 6, 12])
def test_element_strings_match_format_node(n):
    assert ["{" + e + "}" for e in element_strings(n)] == [format_node(s) for s in range(1 << n)]


@pytest.mark.parametrize(
    "sigma, expected",
    [(0, 0), (0b11, 2), (0b101, 2)],
)
def test_cardinality(sigma, expected):
    assert cardinality(sigma) == expected


def test_symmetric_difference_examples():
    assert symmetric_difference(0b01, 0b11) == 0b10
    assert symmetric_difference(0b101, 0b101) == 0
    assert symmetric_difference(0, 0b110) == 0b110


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_symmetric_difference_group_laws_exhaustive(L):
    dim = Level(L).dim
    for a in range(dim):
        assert symmetric_difference(a, 0) == a
        assert symmetric_difference(a, a) == 0
    # associativity over every triple
    for a, b, c in itertools.product(range(dim), repeat=3):
        lhs = symmetric_difference(symmetric_difference(a, b), c)
        rhs = symmetric_difference(a, symmetric_difference(b, c))
        assert lhs == rhs


@pytest.mark.parametrize("L", [0, 2, 4])
def test_symmetric_difference_cardinality_split(L):
    lv = Level(L)
    for a in range(lv.dim):
        for b in range(lv.dim):
            lhs = cardinality(symmetric_difference(a, b))
            rhs = setminus_card(a, b, lv.full_mask) + setminus_card(b, a, lv.full_mask)
            assert lhs == rhs


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


@pytest.mark.parametrize("text", ["5", "0,0", "0,,1", "a", "0;1", "-1"])
def test_parse_node_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_node(text, Level(2))


def test_format_node_canonical():
    assert format_node(0) == "{}"
    assert format_node(0b101) == "{0,2}"
    assert elements(0b1011) == [0, 1, 3]


@pytest.mark.parametrize("L", [0, 2, 4])
def test_parse_format_round_trip(L):
    lv = Level(L)
    for sigma in range(lv.dim):
        assert parse_node(format_node(sigma), lv) == sigma
