"""JSON forms of every key type: the sort key, written by json as nested arrays."""

import json
from fractions import Fraction

import pytest

from wordbell.combinatorics import (
    FACTORIAL,
    ColoredSetPartition,
    CyclePermutation,
    IdempotentEndofunction,
    Level2Partition,
    ListPartition,
    SetPartition,
)
from wordbell.lincomb import LinComb
from wordbell.serialize import lincomb_to_jsonable, sort_key

PARTITION = SetPartition(((1, 3), (2,)))
COLORED = ColoredSetPartition((((1, 3), 2), ((2,), 1)), FACTORIAL)

CASES = [
    (PARTITION, [[1, 3], [2]]),
    (COLORED, [[[1, 3], 2], [[2], 1]]),
    (ListPartition(((3, 1), (2,))), [[3, 1], [2]]),
    (CyclePermutation(((1, 3), (2,))), [[1, 3], [2]]),
    (Level2Partition((((1,), (3,)), ((2,),))), [[[1], [3]], [[2]]]),
    (IdempotentEndofunction((1, 1, 3)), [1, 1, 3]),
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


@pytest.mark.parametrize("key", [1, "x", (1, (2, 3)), 1.5])
def test_unsupported_keys_raise(key):
    with pytest.raises(TypeError):
        lincomb_to_jsonable(LinComb("B", {key: 1}))


@pytest.mark.parametrize("coeff, num, den", [
    (3, "3", "1"), (-7, "-7", "1"), (Fraction(-3, 4), "-3", "4"), (Fraction(4, 2), "2", "1"),
])
def test_coefficients_are_numerator_and_denominator_strings(coeff, num, den):
    # int and Fraction coefficients both write their numerator and denominator
    payload = lincomb_to_jsonable(LinComb("B", {PARTITION: coeff}))
    assert payload["terms"] == [{"key": PARTITION.blocks, "num": num, "den": den}]
