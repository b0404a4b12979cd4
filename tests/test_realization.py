"""Tests for the word polynomial realization and shuffle machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordbell.combinatorics import (
    IDEMPOTENT,
    ColoredSetPartition,
    ColorSequence,
    CyclePermutation,
    SetPartition,
    coarsenings,
    colored_partitions,
    matching_unions,
    set_partitions,
)
from wordbell.hopf import phi_elem, psi_elem, psi_product
from wordbell.lincomb import LinComb
from wordbell.realization import (
    complete_s,
    cycle_bell,
    cycle_complete_family,
    cycle_specialization,
    cycle_word,
    expand_monomial,
    expand_s_on,
    expand_phi,
    expand_psi,
    letters,
    scaled_complete,
    series_shuffle_mul,
    series_shuffle_power,
    shuffle,
    shuffle_composite,
    shuffle_scatter,
    specialize_complete,
    word_one,
    word_zero,
)

CONST9 = ColorSequence.constant(9)


def word(*indices, alphabet=1):
    return tuple((alphabet, i) for i in indices)


def test_expand_phi_two_alphabet_pattern():
    key = ColoredSetPartition([((1, 3), 3), ((2,), 1), ((4,), 3)], CONST9)
    poly = expand_phi(key, 2)
    assert len(poly) == 8
    assert all(c == 1 for _, c in poly.items())
    for w in poly.keys():
        a1, b, a1_again, a2 = w
        assert a1[0] == 3 and a2[0] == 3 and b[0] == 1
        assert a1 == a1_again
    # blocks from the same alphabet may pick equal letters
    assert any(w[0] == w[3] for w in poly.keys())


def test_expand_phi_empty_and_counts():
    assert expand_phi(ColoredSetPartition.empty(CONST9), 3) == word_one()
    for n in range(4):
        for key in colored_partitions(IDEMPOTENT, n):
            poly = expand_phi(key, 3)
            assert len(poly) == 3 ** key.part_count


def test_expand_phi_concatenation_homomorphism():
    for n1 in range(3):
        for n2 in range(3):
            L = 4
            for a in colored_partitions(IDEMPOTENT, n1):
                for b in colored_partitions(IDEMPOTENT, n2):
                    lhs = shuffle_composite(
                        [tuple(range(1, n1 + 1)), tuple(range(n1 + 1, n1 + n2 + 1))],
                        [expand_phi(a, L), expand_phi(b, L)],
                    )
                    assert lhs == expand_phi(a.shifted_union(b), L)


def test_expand_phi_injective():
    seen = {}
    for n in range(4):
        for key in colored_partitions(IDEMPOTENT, n):
            frozen = tuple(sorted(expand_phi(key, 4).items()))
            assert frozen not in seen
            seen[frozen] = key


def test_expand_monomial():
    pi = SetPartition([(1, 4), (2, 5, 6), (3, 7)])
    poly = expand_monomial(pi, 3)
    assert len(poly) == 6  # injective choices of 3 letters out of 3
    for w in poly.keys():
        a, b, c = w[0], w[1], w[2]
        assert len({a, b, c}) == 3
        assert w == (a, b, c, a, b, b, c)
    assert not expand_monomial(SetPartition.singletons(2), 1)


def test_phi_equals_sum_of_monomials_as_words():
    for n in range(5):
        for p in set_partitions(n):
            lhs = expand_phi(p, 4)
            rhs = word_zero()
            for q in coarsenings(p):
                rhs = rhs + expand_monomial(q, 4)
            assert lhs == rhs


def test_shuffle_basics():
    ab = LinComb.term("Word", word(1, 2))
    assert shuffle(ab, word_one()) == ab
    a = LinComb.term("Word", word(1))
    b = LinComb.term("Word", word(2))
    got = shuffle(a, b)
    assert got == LinComb("Word", {word(1, 2): 1, word(2, 1): 1})


def _oracle_shuffle_words(u, v) -> dict:
    # au shuffle bv = a (u shuffle bv) + b (au shuffle v)
    if not u or not v:
        return {u + v: 1}
    out: dict = {}
    for head, rest in ((u[0], (u[1:], v)), (v[0], (u, v[1:]))):
        for tail, c in _oracle_shuffle_words(*rest).items():
            out[(head,) + tail] = out.get((head,) + tail, 0) + c
    return out


def _oracle_shuffle(x, y) -> LinComb:
    out: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for w, mult in _oracle_shuffle_words(u, v).items():
                out[w] = out.get(w, 0) + cu * cv * mult
    return LinComb("Word", out)


# Two letters from each of two alphabets, so that random terms collide and
# cancel; Fraction coefficients include integral ones such as 4/2.
_words = st.lists(
    st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=3
).map(tuple)
_coeffs = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)
_polys = st.lists(st.tuples(_words, _coeffs), max_size=4).map(
    lambda terms: LinComb("Word", terms)
)


def _assert_settled(poly):
    for _, c in poly.items():
        assert c != 0
        if c.denominator == 1:
            assert type(c) is int


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_shuffle_matches_first_letter_recursion(x, y):
    got = shuffle(x, y)
    assert got == _oracle_shuffle(x, y)
    _assert_settled(got)


def test_shuffle_cancellation_and_empty_word():
    a = LinComb.term("Word", word(1))
    b = LinComb.term("Word", word(2))
    got = shuffle(a - b, a + b)  # the ab and ba terms cancel
    assert got == LinComb("Word", {word(1, 1): 2, word(2, 2): -2})
    _assert_settled(got)
    half = LinComb.term("Word", (), Fraction(1, 2))
    assert shuffle(half, half) == LinComb.term("Word", (), Fraction(1, 4))
    got = shuffle(a * Fraction(4, 2), half)  # Fraction(2, 1) times 1/2
    assert got == a
    _assert_settled(got)


@settings(max_examples=60, deadline=None)
@given(st.lists(_polys, max_size=3), st.lists(_polys, max_size=3), st.integers(0, 3))
def test_series_shuffle_mul_is_termwise_shuffle(a, b, order):
    got = series_shuffle_mul(a, b, order)
    assert len(got) == order + 1
    for n, coeff in enumerate(got):
        want = word_zero()
        for i in range(min(n, len(a) - 1) + 1):
            if n - i < len(b):
                want = want + shuffle(a[i], b[n - i])
        assert coeff == want
        _assert_settled(coeff)


@settings(max_examples=40, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=3), st.booleans(), st.integers(0, 3), st.integers(0, 3))
def test_series_shuffle_power_is_k_fold_mul(a, valuation_one, k, order):
    if valuation_one:
        a = [word_zero()] + a[1:]
    got = series_shuffle_power(a, k, order)
    want = [word_one()]
    for _ in range(k):
        want = series_shuffle_mul(want, a, order)
    assert got == want + [word_zero()] * (order + 1 - len(want))
    for coeff in got:
        _assert_settled(coeff)


def test_complete_s_is_one_block_s_function():
    A = [(1, 1), (1, 2), (2, 1)]
    for n in range(0, 6):
        assert complete_s(n, A) == expand_s_on(SetPartition.single_block(n), A)


def test_shuffle_matches_dual_product():
    for n1 in range(1, 3):
        for n2 in range(1, 4 - n1 + 1):
            L = n1 + n2
            for p1 in set_partitions(n1):
                for p2 in set_partitions(n2):
                    lhs = shuffle(expand_psi(p1, L), expand_psi(p2, L))
                    prod = psi_product(psi_elem(p1), psi_elem(p2))
                    rhs = word_zero()
                    for key, c in prod.items():
                        rhs = rhs + expand_psi(key, L) * c
                    assert lhs == rhs


def test_shuffle_scatter():
    x, y, z = (1, 1), (1, 2), (1, 3)
    assert shuffle_scatter([(1, 2)], [(x, y)]) == (x, y)
    assert shuffle_scatter([(1, 3), (2,)], [(x, y), (z,)]) == (x, z, y)
    assert shuffle_scatter([(1, 3), (2,)], [(x,), (z,)]) is None
    composite = shuffle_composite(
        [(1, 3), (2,)],
        [LinComb.term("Word", (x, y)), LinComb.term("Word", (z,))],
    )
    assert composite == LinComb.term("Word", (x, z, y))
    zero_case = shuffle_composite(
        [(1, 3), (2,)],
        [LinComb.term("Word", (x,)), LinComb.term("Word", (z,))],
    )
    assert not zero_case


def test_specialize_complete_rules():
    A = letters(1, 3)
    family = {m: complete_s(m, A) for m in range(1, 7)}
    # single block gives the family member itself
    for n in range(1, 4):
        assert specialize_complete(SetPartition.single_block(n), family) == family[n]
    # concatenation rule
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            for p1 in set_partitions(n1):
                for p2 in set_partitions(n2):
                    lhs = shuffle_composite(
                        [
                            tuple(range(1, n1 + 1)),
                            tuple(range(n1 + 1, n1 + n2 + 1)),
                        ],
                        [
                            specialize_complete(p1, family),
                            specialize_complete(p2, family),
                        ],
                    )
                    rhs = specialize_complete(p1.shifted_union(p2), family)
                    assert lhs == rhs
    # shuffle rule
    for n1 in range(1, 3):
        for n2 in range(1, 3):
            for p1 in set_partitions(n1):
                for p2 in set_partitions(n2):
                    lhs = shuffle(
                        specialize_complete(p1, family),
                        specialize_complete(p2, family),
                    )
                    rhs = word_zero()
                    for q in matching_unions(p1, p2):
                        count = 0
                        # multiplicity: interleavings can repeat a partition
                        from wordbell.combinatorics import interleave_keys

                        for u in interleave_keys(p1, p2):
                            if u == q:
                                count += 1
                        rhs = rhs + specialize_complete(q, family) * count
                    assert lhs == rhs


def test_degree_mismatch_raises():
    A = letters(1, 2)
    family = {1: complete_s(2, A)}  # wrong degree on purpose
    with pytest.raises(ValueError):
        specialize_complete(SetPartition.single_block(1), family)


def test_cycle_word_worked_example():
    sigma = CyclePermutation.from_one_line((3, 1, 2, 6, 5, 4))
    assert cycle_word(sigma) == word(1, 3, 2, 1, 1, 2)
    identity = CyclePermutation.from_one_line((1, 2, 3, 4))
    assert cycle_word(identity) == word(1, 1, 1, 1)
    assert cycle_specialization(sigma) == LinComb.term("Word", word(1, 3, 2, 1, 1, 2))


def test_cycle_bell_four_two():
    got = cycle_bell(4, 2)
    expected = {
        word(1, 1, 2, 3): 2,
        word(1, 1, 3, 2): 2,
        word(1, 2, 1, 3): 1,
        word(1, 3, 1, 2): 1,
        word(1, 2, 3, 1): 1,
        word(1, 3, 2, 1): 1,
        word(1, 2, 1, 2): 1,
        word(1, 1, 2, 2): 2,
    }
    assert got == LinComb("Word", expected)
    assert sum(c for _, c in got.items()) == 11  # unsigned Stirling s_{4,2}


def test_cycle_bell_matches_shuffle_bell():
    from wordbell.bell import shuffle_partial_bell

    family = {m: cycle_complete_family(m) for m in range(1, 6)}
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert shuffle_partial_bell(family, n, k) == cycle_bell(n, k)


def test_cycle_bell_matches_permutation_filter():
    from itertools import permutations

    for n in range(7):
        sigmas = [CyclePermutation.from_one_line(line) for line in permutations(range(1, n + 1))]
        for k in range(n + 2):
            want: dict = {}
            for sigma in sigmas:
                if sigma.cycle_count == k:
                    w = cycle_word(sigma)
                    want[w] = want.get(w, 0) + 1
            assert cycle_bell(n, k) == LinComb("Word", want)


def test_scaled_complete_is_shuffle_power():
    A = letters(1, 2)
    # sigma_t(2A) = sigma_t(A)^(shuffle 2): check one coefficient directly
    lhs = scaled_complete(2, 2, A)
    rhs = shuffle(complete_s(0, A), complete_s(2, A)) * 2 + shuffle(
        complete_s(1, A), complete_s(1, A)
    )
    assert lhs == rhs
