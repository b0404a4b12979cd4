"""Tests for the sparse linear-combination container."""

from fractions import Fraction

from hypothesis import given, strategies as st

from wordbell.lincomb import LinComb

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


def test_zero_terms_cancellation_and_return():
    assert not LinComb("B", [(1, 0), (2, Fraction(0))])
    assert not LinComb("B", [(1, 2), (1, -2)])
    back = LinComb("B", [(1, 2), (2, 1), (1, -2), (1, Fraction(1, 2))])
    assert dict(back.items()) == {2: 1, 1: Fraction(1, 2)}
