"""JSON forms of the key types the command line emits: the sort key, written
by json as nested arrays."""

import json
from fractions import Fraction

import pytest

from wordbell.combinatorics import FACTORIAL, ColoredSetPartition, ListPartition, SetPartition
from wordbell.lincomb import LinComb
from wordbell.serialize import lincomb_to_jsonable, sort_key

PARTITION = SetPartition(((1, 3), (2,)))
COLORED = ColoredSetPartition((((1, 3), 2), ((2,), 1)), FACTORIAL)

CASES = [
    (PARTITION, [[1, 3], [2]]),
    (COLORED, [[[1, 3], 2], [[2], 1]]),
    (SetPartition(((1, 2, 3),)), [[1, 2, 3]]),  # one block
    (SetPartition(()), []),  # the empty partition
    (ColoredSetPartition((((1, 2), 1),), FACTORIAL), [[[1, 2], 1]]),  # one colored block
    ((5,), [5]),  # one-letter word
    ((2, 1, 1), [2, 1, 1]),  # noncommutative word
    (((1, 2), (2, 1)), [[1, 2], [2, 1]]),  # word of [alphabet, letter] pairs
    ((), []),  # empty word
    ((PARTITION, COLORED), [[[1, 3], [2]], [[[1, 3], 2], [[2], 1]]]),  # tensor pair
]


@pytest.mark.parametrize("key, form", CASES)
def test_json_form_is_the_sort_key(key, form):
    assert json.loads(json.dumps(sort_key(key))) == form
    payload = lincomb_to_jsonable(LinComb("B", {key: 3}))
    assert json.loads(json.dumps(payload))["terms"] == [{"key": form, "num": "3", "den": "1"}]


# no command emits the bijection classes' keys, so they have no JSON form
@pytest.mark.parametrize("key", [1, "x", (1, (2, 3)), 1.5, ListPartition(((3, 1), (2,)))])
def test_unsupported_keys_raise(key):
    with pytest.raises(TypeError):
        lincomb_to_jsonable(LinComb("B", {key: 1}))


def test_sequence_comes_only_from_the_caller():
    # colored keys do not name their sequence in the payload unless asked to
    x = LinComb("Psi", {COLORED: 1})
    assert lincomb_to_jsonable(x)["sequence"] is None
    assert lincomb_to_jsonable(x, "factorial")["sequence"] == "factorial"


@pytest.mark.parametrize("coeff, num, den", [
    (3, "3", "1"), (-7, "-7", "1"), (Fraction(-3, 4), "-3", "4"), (Fraction(4, 2), "2", "1"),
])
def test_coefficients_are_numerator_and_denominator_strings(coeff, num, den):
    # int and Fraction coefficients both write their numerator and denominator
    payload = lincomb_to_jsonable(LinComb("B", {PARTITION: coeff}))
    assert payload["terms"] == [{"key": PARTITION.blocks, "num": num, "den": den}]
