"""Tests for the truncated series engine."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordbell import series
from wordbell.sympoly import SparsePoly

_coeffs = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)


def _full_mul(a, b):
    """The untruncated product of two coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(_coeffs, min_size=1, max_size=6),
    st.integers(0, 9),
    st.integers(0, 8),
)
def test_power_is_k_untruncated_products(v, tail, k, order):
    # a base of valuation v (or higher, when tail[0] is 0), k = 0 and
    # k * v > order included; k <= 9 reaches every step of binary powering:
    # squares alone (2, 4, 8), a square then a product by the base (3, 5, 7, 9)
    # and both within one k (6 = 0b110)
    a = [0] * v + tail
    want = [Fraction(1)]
    for _ in range(k):
        want = _full_mul(want, a)
    want = series.pad(want, order)
    got = series.power(a, k, order)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_power_squares_each_unordered_pair_once():
    # F = x1 t + ... + x4 t^4 over polynomials: a coefficient of F^e is
    # homogeneous of degree e in the x_i, so a counting dot can tell which
    # partial powers each of its pairs multiplies
    one, order = SparsePoly.const(1), 8
    base = [SparsePoly.zero()] + [SparsePoly.var(i) for i in range(1, 5)]
    degree = lambda x: sum(next(iter(x.keys())))
    products, shapes = Counter(), set()

    def counting_dot(pairs):
        for x, y in pairs:
            shapes.add(tuple(sorted((degree(x), degree(y)))))
            if degree(x) == degree(y) == 1:
                products[next(iter((x * y).keys()))] += 1
        return series._ring_dot(pairs)

    square = series.power(base, 2, order, one, counting_dot)
    assert square == series.mul(base, base, order, one)
    # x_i x_j is one pair (2 x_i, x_j) for i < j, and (x_i, x_i) for i = j
    assert products == Counter(next(iter((base[i] * base[j]).keys())) for i in range(1, 5) for j in range(i, 5))
    shapes.clear()
    fourth = series.power(base, 4, order, one, counting_dot)
    assert fourth == series.mul(series.mul(square, base, order, one), base, order, one)
    # F^4 is the square of F^2: no product of F^3 by F, nor of F^2 by F
    assert shapes == {(0, 1), (1, 1), (2, 2)}


def test_power_of_zero_series():
    assert series.power([0, 0], 0, 3) == [1, 0, 0, 0]
    assert series.power([0, 0], 2, 3) == [0, 0, 0, 0]


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        series.power([1, 1], -1, 3)
    with pytest.raises(ValueError):
        series.power([0, 1], -2, 3)


def test_divided_power_is_zero_below_k_0_and_the_power_at_k_0_and_1():
    assert series.divided_power([0, 1], -1, 3) == [0, 0, 0, 0]
    assert series.divided_power([2, 1], -3, 1, SparsePoly.const(1)) == [SparsePoly.zero()] * 2
    assert series.divided_power([2, 1], 0, 3) == [1, 0, 0, 0]
    assert series.divided_power([2, 1], 1, 3) == [2, 1, 0, 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(_coeffs, min_size=1, max_size=6), st.integers(2, 7), st.integers(0, 8))
def test_divided_power_is_the_power_over_k_factorial(a, k, order):
    got = series.divided_power(a, k, order)
    assert got == [Fraction(c, math.factorial(k)) for c in series.power(a, k, order)]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), st.integers(-1, 6), st.integers(0, 6))
def test_divided_power_over_the_integers_has_no_floats(a, k, order):
    got = series.divided_power(a, k, order, one=1)
    assert len(got) == order + 1
    assert all(type(c) in (int, Fraction) for c in got)
