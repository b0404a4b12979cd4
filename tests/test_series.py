"""Tests for the truncated series engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordbell import series

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
    st.integers(0, 5),
    st.integers(0, 8),
)
def test_power_is_k_untruncated_products(v, tail, k, order):
    # a base of valuation v (or higher, when tail[0] is 0), k = 0 and
    # k * v > order included
    a = [0] * v + tail
    want = [Fraction(1)]
    for _ in range(k):
        want = _full_mul(want, a)
    want = series.pad(want, order)
    got = series.power(a, k, order)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_power_of_zero_series():
    assert series.power([0, 0], 0, 3) == [1, 0, 0, 0]
    assert series.power([0, 0], 2, 3) == [0, 0, 0, 0]


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        series.power([1, 1], -1, 3)
    with pytest.raises(ValueError):
        series.power([0, 1], -2, 3)
