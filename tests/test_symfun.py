"""Tests for symmetric functions, virtual alphabets and the appendix suite."""

import math
import random
from fractions import Fraction

import pytest

from wordbell import series
from wordbell.bell import eval_complete_bell, eval_partial_bell
from wordbell.combinatorics import int_partitions
from wordbell.symfun import (
    VirtualAlphabet,
    _det,
    alphabet_compose,
    alphabet_inverse,
    alphabet_product,
    alphabet_scale,
    alphabet_sum,
    c_from_h,
    h_from_c,
    h_k_part,
    hat_alphabet,
    identity_alphabet,
    inverse_closed_form,
    schur,
)
from wordbell.sympoly import SparsePoly
from wordbell.verify import appendix_suite

rng = random.Random(99)


def random_alphabet(degree, lo=-3, hi=3):
    return VirtualAlphabet.from_c(
        [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(degree)]
    )


def test_h_from_c_small():
    assert h_from_c(0) == 1
    assert h_from_c(1) == SparsePoly.var(1)
    assert h_from_c(2) == SparsePoly.var(2) + SparsePoly.var(1, 2) * Fraction(1, 2)
    # the reference: the sum over partitions lambda of n of c_lambda, the
    # monomial divided by the factorials of its multiplicities
    for n in range(8):
        terms = []
        for lam in int_partitions(n):
            mono = [0] * n
            for part in lam:
                mono[part - 1] += 1
            terms.append((mono, Fraction(1, math.prod(map(math.factorial, mono)))))
        assert h_from_c(n) == SparsePoly(terms)


def test_complete_bell_formula_for_h():
    # n! h_n = A_n(1! c_1, 2! c_2, ...)
    for n in range(8):
        x = random_alphabet(max(n, 1))
        lhs = math.factorial(n) * h_from_c(n).evaluate(x.c)
        rhs = eval_complete_bell(lambda m: math.factorial(m) * x.c(m), n)
        assert lhs == rhs


def test_round_trip_h_c():
    one = SparsePoly.const(1)
    for n in range(1, 11):
        back = c_from_h(n).substitute(h_from_c, mul=lambda a, b: a * b, one=one)
        assert back == SparsePoly.var(n)
        forth = h_from_c(n).substitute(c_from_h, mul=lambda a, b: a * b, one=one)
        assert forth == SparsePoly.var(n)


def test_eval_known_alphabets():
    ones = VirtualAlphabet.ones(8)
    assert all(ones.h(n) == 1 for n in range(9))
    zero = VirtualAlphabet.zero(6)
    assert zero.h(0) == 1 and all(zero.h(n) == 0 for n in range(1, 7))
    with pytest.raises(ValueError):
        zero.c(7)
    assert [ones.e(n) for n in range(9)] == [1, 1] + [0] * 7
    empty = VirtualAlphabet.zero(0)
    assert empty.h(0) == empty.e(0) == 1
    # lambda_{-t} sigma_t = 1: sum_i (-1)^i e_i h_{n-i} = [n = 0]
    for degree in (0, 1, 4, 8):
        x = random_alphabet(degree)
        assert x.h(0) == x.e(0) == 1
        for n in range(degree + 1):
            assert sum((-1) ** i * x.e(i) * x.h(n - i) for i in range(n + 1)) == (n == 0)


def test_specialization_gives_complete_bell():
    for _ in range(3):
        a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        x = VirtualAlphabet.from_c([a[i] / math.factorial(i + 1) for i in range(7)])
        for n in range(8):
            assert x.h(n) == eval_complete_bell(a, n) / math.factorial(n)


def test_h_k_parts():
    for n in range(1, 8):
        assert h_k_part(n, n) == SparsePoly.var(1, n) * Fraction(
            1, math.factorial(n)
        )
        assert h_k_part(n, 1) == SparsePoly.var(n)
        total = SparsePoly.zero()
        for k in range(n + 1):
            total = total + h_k_part(n, k)
        assert total == h_from_c(n)


def test_h_k_gives_partial_bell():
    for _ in range(3):
        a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        x = VirtualAlphabet.from_c([a[i] / math.factorial(i + 1) for i in range(7)])
        for n in range(8):
            for k in range(n + 1):
                lhs = math.factorial(n) * h_k_part(n, k).evaluate(x.c)
                assert lhs == eval_partial_bell(a, n, k)


def test_alphabet_sum_and_scale():
    x = random_alphabet(7)
    y = random_alphabet(7)
    s = alphabet_sum(x, y)
    for n in range(8):
        assert s.h(n) == sum(
            (x.h(i) * y.h(n - i) for i in range(n + 1)), Fraction(0)
        )
    for k in (2, 3):
        scaled = alphabet_scale(k, x)
        power = series.power([x.h(i) for i in range(8)], k, 7)
        assert all(scaled.h(n) == power[n] for n in range(8))


def test_alphabet_compose_and_inverse():
    x = random_alphabet(7)
    assert alphabet_compose(x, identity_alphabet(7)).c_values == x.c_values
    inverse = alphabet_inverse(x)
    composed = alphabet_compose(x.truncate(6), inverse.truncate(6))
    assert all(composed.h(n) == 0 for n in range(1, 6))
    for n in range(1, 6):
        assert inverse_closed_form(x, n) == inverse.h(n)


def test_schur_basics_and_cauchy():
    x = random_alphabet(6)
    y = random_alphabet(6)
    assert schur((3,), x) == x.h(3)
    assert schur((1, 1), x) == x.h(1) ** 2 - x.h(2)
    # the empty determinant is the empty product
    assert _det([]) == 1 and schur((), x) == 1
    product = alphabet_product(x, y)
    for n in range(6):
        rhs = sum(
            (schur(lam, x) * schur(lam, y) for lam in int_partitions(n)),
            Fraction(0),
        )
        assert product.h(n) == rhs


def test_hat_alphabet_requires_unit_head():
    with pytest.raises(ValueError):
        hat_alphabet([Fraction(2), Fraction(1)], 3)
    hat = hat_alphabet([1, 2, 6], 2)
    assert hat.h(1) == Fraction(2, 2)
    assert hat.h(2) == Fraction(6, 6)


def test_appendix_suite_all_pass():
    report = appendix_suite()
    assert len(report) == 9
    for item in report:
        assert item["status"] == "pass", item
    # the determinant item reports which reading survives
    det_item = next(i for i in report if "determinant" in i["identity"])
    assert "corrected" in det_item.get("note", "")
