"""Tests for the sparse linear-combination container."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wordbell.lincomb import BasisError, LinComb, _lincomb_sum

coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)
pairs = st.lists(st.tuples(st.integers(0, 3), coefficients), max_size=25)


def naive_sum(terms):
    totals = {}
    for key, coeff in terms:
        totals[key] = totals.get(key, 0) + coeff
    return {key: total for key, total in totals.items() if total}


@given(pairs)
def test_construction_is_a_per_key_sum_without_zeros(terms):
    got = LinComb("B", terms)
    assert dict(got.items()) == naive_sum(terms)
    assert LinComb("B", naive_sum(terms)) == got


@given(pairs, pairs)
def test_addition_is_a_per_key_sum_without_zeros(left, right):
    got = LinComb("B", left) + LinComb("B", right)
    assert dict(got.items()) == naive_sum(left + right)


@given(st.lists(pairs, max_size=4))
def test_lincomb_sum_is_a_per_key_sum_without_zeros(parts):
    got = _lincomb_sum("B", [LinComb("B", terms) for terms in parts])
    assert got == LinComb("B", naive_sum([kv for terms in parts for kv in terms]))
    assert got.basis == "B"


def test_lincomb_sum_rejects_a_foreign_basis():
    with pytest.raises(BasisError):
        _lincomb_sum("B", [LinComb.term("B", 1), LinComb.term("C", 1)])


def test_zero_terms_cancellation_and_return():
    assert not LinComb("B", [(1, 0), (2, Fraction(0))])
    assert not LinComb("B", [(1, 2), (1, -2)])
    back = LinComb("B", [(1, 2), (2, 1), (1, -2), (1, Fraction(1, 2))])
    assert dict(back.items()) == {2: 1, 1: Fraction(1, 2)}


@given(pairs, st.integers(-6, 6).filter(lambda d: d != 0))
def test_division_by_an_int_is_exact(terms, d):
    got = LinComb("B", terms) / d
    want = {key: Fraction(c, d) for key, c in naive_sum(terms).items()}
    assert dict(got.items()) == want
    # an integral quotient is stored as int, any other as a Fraction
    for key, c in got.items():
        assert type(c) is (int if want[key].denominator == 1 else Fraction)


def test_division_by_a_fraction_and_by_zero():
    x = LinComb("B", {1: 6, 2: Fraction(3, 2)})
    assert x / Fraction(1, 2) == x * 2
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Fraction(0)


def test_polynomials_are_linear_combinations_of_the_subclass_type():
    from wordbell.sympoly import SparsePoly

    x1, x2 = SparsePoly.var(1), SparsePoly.var(2)
    p = x1 * x2 * 3 + x1 - SparsePoly.const(2)
    assert isinstance(p, LinComb)
    for value in (p + x2, -p, p - x1, p * Fraction(1, 2), 2 * p, p / 3, p * 0, p * x2):
        assert type(value) is SparsePoly
    assert type(p.retag("B")) is LinComb
    assert dict(p.items()) == {(1, 1): 3, (1,): 1, (): -2}
    assert p.coeff((1, 0, 0)) == 1 and p.coeff([0]) == -2
    assert SparsePoly([((1, 0), 2), ((1,), -2), ((0, 0), 5)]) == 5 == SparsePoly.const(5)
    assert p.evaluate(lambda i: Fraction(1, i)) == Fraction(1, 2)
    shifted = p.substitute(lambda i: SparsePoly.var(i + 1), one=SparsePoly.const(1))
    assert shifted == x2 * SparsePoly.var(3) * 3 + x2 - SparsePoly.const(2)
