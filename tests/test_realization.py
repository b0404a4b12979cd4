"""Tests for the word polynomial realization and shuffle machinery."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wordbell import series
from wordbell.bell import _alphabet
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
    series_shuffle_power,
    shuffle,
    shuffle_composite,
    shuffle_scatter,
    shuffle_sum,
    shuffle_sums_agree,
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
_coeffs = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)


def _polys_of(max_len):
    """Word polynomials of up to four terms, words of up to max_len letters."""
    words = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), max_size=max_len).map(tuple)
    return st.lists(st.tuples(words, _coeffs), max_size=4).map(lambda terms: LinComb("Word", terms))


_polys = _polys_of(3)


def _assert_normal_form(poly):
    for _, c in poly.items():
        assert c != 0
        if c.denominator == 1:
            assert type(c) is int


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_shuffle_matches_first_letter_recursion(x, y):
    got = shuffle(x, y)
    assert got == _oracle_shuffle(x, y)
    _assert_normal_form(got)


def test_shuffle_cancellation_and_empty_word():
    a = LinComb.term("Word", word(1))
    b = LinComb.term("Word", word(2))
    got = shuffle(a - b, a + b)  # the ab and ba terms cancel
    assert got == LinComb("Word", {word(1, 1): 2, word(2, 2): -2})
    _assert_normal_form(got)
    half = LinComb.term("Word", (), Fraction(1, 2))
    assert shuffle(half, half) == LinComb.term("Word", (), Fraction(1, 4))
    got = shuffle(a * Fraction(4, 2), half)  # Fraction(2, 1) times 1/2
    assert got == a
    _assert_normal_form(got)


def _checked_shuffle(x, y):
    got = shuffle(x, y)
    assert got == _oracle_shuffle(x, y)
    _assert_normal_form(got)
    return got


def test_shuffle_of_large_operands_with_shared_coefficients():
    # Most products have coefficient 1 and are counted straight into the sum;
    # the others (2, -1, -2) are counted apart and merged scaled.
    from itertools import product as cartesian

    ab = [(1, 1), (2, 1)]
    x = LinComb("Word", {
        w: 2 if w[-1] == (2, 1) and len(w) == 3 else 1
        for n in range(1, 5) for w in cartesian(ab, repeat=n)
    })
    y = LinComb("Word", {
        w: -1 if len(w) == 2 and w[0] == (1, 2) else 1
        for n in range(4) for w in cartesian([(1, 1), (1, 2), (2, 2)], repeat=n)
    })
    assert len(x) == 30 and len(y) == 40
    assert {c for _, c in x.items()} == {1, 2} and {c for _, c in y.items()} == {1, -1}
    _checked_shuffle(x, y)


def test_shuffle_kernel_edge_cases():
    u, v = word(1), word(1, alphabet=2)
    a, b = LinComb.term("Word", u), LinComb.term("Word", v)
    one = word_one()
    x = a * 3 + LinComb.term("Word", word(2, 1)) + one * 2
    # each (length, coefficient) group of fx meets each of fy with its own c
    fx = LinComb("Word", {u: Fraction(2, 3), word(2): Fraction(1, 2), word(1, 2): Fraction(5, 6)})
    fy = LinComb("Word", {v: Fraction(3, 4), word(2, 1): Fraction(-1, 6)})
    cases = {
        "empty word on the left": (one, x, x),
        "empty word on the right": (x, one * 5, x * 5),
        "empty word on both sides": (one * -1, one, one * -1),
        "one letter each": (a, b, LinComb("Word", {u + v: 1, v + u: 1})),
        "one letter, scaled": (a * 3, a * -2, LinComb.term("Word", u + u, -12)),
        # the groups c and -c give ab and ba counts that cancel
        "cancelling groups": (a * 3 - b * 3, a + b, LinComb("Word", {u + u: 6, v + v: -6})),
        # c = 3/2 * 2/3 is 1, so these count straight into the sum
        "fractions with product 1": (a * Fraction(3, 2), b * Fraction(2, 3), LinComb("Word", {u + v: 1, v + u: 1})),
        "fractions with product 2": (a * Fraction(3, 2), b * Fraction(4, 3), LinComb("Word", {u + v: 2, v + u: 2})),
        # uv and vu get 1/2 from c = 1/2 and 3/2 from c = 3/2; uu is 1/2 * 2
        "merged sum integral": (
            a * Fraction(1, 2) + b * Fraction(3, 2), a + b, LinComb("Word", {u + u: 1, u + v: 2, v + u: 2, v + v: 3}),
        ),
        "merged sum cancels": (
            a * Fraction(1, 2) - b * Fraction(1, 2), a + b, LinComb("Word", {u + u: 1, v + v: -1}),
        ),
        "integral Fraction operand": (
            LinComb("Word", {u: Fraction(4, 2)}), b, LinComb("Word", {u + v: 2, v + u: 2}),
        ),
    }
    for name, (left, right, want) in cases.items():
        assert _checked_shuffle(left, right) == want, name
    assert _checked_shuffle(fx, fy).coeff(u + v) == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(_polys, max_size=3), st.lists(_polys, max_size=3), st.integers(0, 3))
def test_series_shuffle_mul_is_termwise_shuffle(a, b, order):
    got = series.mul(a, b, order, word_one(), shuffle_sum)
    assert len(got) == order + 1
    for n, coeff in enumerate(got):
        want = word_zero()
        for i in range(min(n, len(a) - 1) + 1):
            if n - i < len(b):
                want = want + shuffle(a[i], b[n - i])
        assert coeff == want
        _assert_normal_form(coeff)
    # the dot itself, over all the pairs at once, zero operands included
    pairs = list(zip(a, b))
    got = shuffle_sum(pairs)
    want = word_zero()
    for x, y in pairs:
        want = want + _oracle_shuffle(x, y)
    assert got == want
    _assert_normal_form(got)


# the pair letters of _polys renamed to the identity suite's int letters
_INT_LETTER = dict(zip(letters(1, 2) + letters(2, 2), _alphabet(1, 2) + _alphabet(2, 2)))


def _int_lettered(x):
    return LinComb("Word", ((tuple(map(_INT_LETTER.__getitem__, w)), c) for w, c in x.items()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_polys, _polys), max_size=3))
def test_renaming_pair_letters_to_int_letters_commutes_with_the_shuffle(pairs):
    # the kernel takes any hashable letters: the identity suite's int letters
    # (bell._alphabet) shuffle as the pair letters they rename
    assert len(set(_INT_LETTER.values())) == len(_INT_LETTER)
    got = shuffle_sum((_int_lettered(x), _int_lettered(y)) for x, y in pairs)
    assert got == _int_lettered(shuffle_sum(pairs))
    _assert_normal_form(got)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_polys, _polys), min_size=1, max_size=3),
    st.booleans(),
    st.integers(0, 2),
    st.booleans(),
    st.lists(st.sampled_from(sorted(_INT_LETTER)), max_size=3).map(tuple),
)
def test_shuffle_sums_agree_is_equality_of_the_sums(pairs, int_letters, at, on_left, extra):
    # the content-graded test against building both sums whole: R is L with
    # each pair's operands swapped and the pairs reversed (the same sum), or
    # L with one word added to one operand (a different sum unless it cancels)
    if int_letters:
        pairs = [(_int_lettered(x), _int_lettered(y)) for x, y in pairs]
        extra = tuple(map(_INT_LETTER.__getitem__, extra))
    swapped = [(y, x) for x, y in reversed(pairs)]
    at %= len(pairs)
    x, y = pairs[at]
    term = LinComb.term("Word", extra)
    grown = pairs[:at] + [(x + term, y) if on_left else (x, y + term)] + pairs[at + 1:]
    assert shuffle_sums_agree(pairs, swapped)
    for lhs, rhs in ((pairs, grown), (grown, pairs), (swapped, grown)):
        assert shuffle_sums_agree(lhs, rhs) == (shuffle_sum(lhs) == shuffle_sum(rhs))


def test_shuffle_sums_agree_edge_cases():
    a, b = LinComb.term("Word", word(1)), LinComb.term("Word", word(1, alphabet=2))
    one = word_one()
    assert shuffle_sums_agree([], [])
    assert shuffle_sums_agree([(a, word_zero())], [])
    assert not shuffle_sums_agree([(a, b)], [])
    assert not shuffle_sums_agree([], [(one, one)])
    assert shuffle_sums_agree([(a, b)], iter([(b, a)]))
    # a shuffle b = ab + ba, split across two rhs pairs of another content
    ab = LinComb.term("Word", word(1) + word(1, alphabet=2))
    ba = LinComb.term("Word", word(1, alphabet=2) + word(1))
    assert shuffle_sums_agree([(a, b)], [(ab, one), (one, ba)])
    assert not shuffle_sums_agree([(a, b)], [(ab, one)])
    # 5/2 (ab + ba) from the product coefficients 2 and 1/2 on each side
    half = one * Fraction(1, 2)
    assert shuffle_sums_agree([(a * 3, b * Fraction(2, 3)), (half, ab), (ba, half)], [(a * 2, b), (a, b * Fraction(1, 2))])
    assert not shuffle_sums_agree([(a * 3, b * Fraction(2, 3)), (half, ab)], [(a * 2, b), (a, b * Fraction(1, 2))])
    # the ab and ba counts of the lhs cancel inside their component
    assert shuffle_sums_agree([(a - b, a + b)], [(a, a), (b * -1, b)])
    # the classes 1 and -1 hold the same words with other counts (ab + ba
    # against 2 ab + ba), so they differ as dicts and the merge leaves -ab
    assert not shuffle_sums_agree([(a, b)], [(ab + ba, one), (ab, one)])
    # the classes 2 and -1 do not pair as c and -c, and the merge cancels them
    assert shuffle_sums_agree([(a * 2, b)], [(a, b), (b, a)])


def test_series_shuffle_mul_cancels_across_degree_pairs():
    # [t] (1 + a t)(1 - a t): the pair with coefficient -1 comes first and the
    # pair with coefficient 1 cancels it; [t^2] is a shuffle (-a) = -2 aa
    a = LinComb.term("Word", word(1))
    got = series.mul([word_one(), a], [word_one(), -a], 2, word_one(), shuffle_sum)
    assert got == [word_one(), word_zero(), LinComb.term("Word", word(1, 1), -2)]


@settings(max_examples=40, deadline=None)
@given(
    # words of at most 8 // k letters (and 3), so that no word of the power or
    # of its k-fold oracle is longer than 8 letters: this bounds the test's cost
    st.integers(0, 5).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(_polys_of(min(3, 8 // max(k, 1))), min_size=1, max_size=3))
    ),
    st.integers(0, 2),
    st.integers(0, 3),
)
# whatever the seed draws: the longest words at k = 4 and 5, on a base of
# valuation 2 and 1
@example((4, [LinComb("Word", {word(1, 2): 1, word(2): 2})]), 2, 1)
@example((5, [LinComb("Word", {word(1): 1, word(2): Fraction(1, 2)}), LinComb.term("Word", word(1, alphabet=2), -1)]), 1, 3)
def test_series_shuffle_power_is_k_fold_mul(k_and_base, valuation, order):
    # k <= 5 reaches a square alone (2), a square then a product by the base
    # (3, 5) and two squares (4); a base of valuation 1 or 2, with the order
    # raised by k times it, runs the truncated partial powers on all its terms
    k, a = k_and_base
    a = [word_zero()] * valuation + a
    order += valuation * k
    got = series_shuffle_power(a, k, order)
    want = [word_one()]
    for _ in range(k):
        want = series.mul(want, a, order, word_one(), shuffle_sum)
    assert got == want + [word_zero()] * (order + 1 - len(want))
    for coeff in got:
        _assert_normal_form(coeff)


def test_complete_s_is_one_block_s_function():
    A = [(1, 1), (1, 2), (2, 1)]
    for n in range(0, 6):
        assert complete_s(n, A) == expand_s_on(SetPartition.single_block(n), A)


def test_complete_s_of_a_scaled_alphabet_is_a_shuffle_power():
    # sigma_t(kA) = sigma_t(A)^(shuffle k), with the shuffle power as the oracle
    A = [(1, 1), (1, 2), (2, 1)]
    sigma = [complete_s(m, A) for m in range(6)]
    for k in range(4):
        powered = series_shuffle_power(sigma, k, 5)
        for n in range(6):
            assert complete_s(n, A, k) == powered[n]
    # sigma_t(0A) = 1
    assert [complete_s(n, A, 0) for n in range(6)] == [word_one()] + [word_zero()] * 5


def test_complete_s_weights_each_word_by_its_letter_counts():
    # one letter: S_m(a) = lambda_1(m) a^m with lambda_1 = 1, 1, 3, 13, 73;
    # a word's coefficient is the product of lambda_k over its letters
    a, b = (1, 1), (1, 2)
    for m, lah_sum in enumerate([1, 1, 3, 13, 73]):
        assert complete_s(m, [a]) == LinComb("Word", {(a,) * m: lah_sum})
    assert complete_s(3, [a, b]).coeff((a, b, a)) == 3
    assert complete_s(3, [a, b], 2).coeff((a, b, a)) == 8 * 2  # lambda_2: 1, 2, 8


def test_complete_s_rejects_repeated_letters_and_negative_scaling():
    with pytest.raises(ValueError):
        complete_s(2, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        complete_s(2, letters(1, 2), -1)


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
    # an entry outside 1..n is refused before any letter is placed: 0 would
    # wrap to the last slot, and 5 would index past the word
    for bad in ([(0, 1)], [(1, 5)]):
        with pytest.raises(ValueError):
            shuffle_scatter(bad, [("a", "b")])
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
    # single block gives the family member itself, the empty key the empty word
    for n in range(1, 4):
        assert specialize_complete(SetPartition.single_block(n), family) == family[n]
    assert specialize_complete(SetPartition(), family) == word_one()
    # concatenation rule, the empty key included
    for n1 in range(3):
        for n2 in range(3):
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
    # shuffle rule, the empty key included
    for n1 in range(3):
        for n2 in range(3):
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

    family = [None] + [cycle_complete_family(m) for m in range(1, 6)]
    for n in range(1, 6):
        for k in range(1, n + 1):
            assert shuffle_partial_bell(family, n, k) == cycle_bell(n, k)


def test_cycle_bell_matches_permutation_filter():
    from itertools import permutations

    for n in range(8):
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
    lhs = complete_s(2, A, 2)
    rhs = shuffle(complete_s(0, A), complete_s(2, A)) * 2 + shuffle(
        complete_s(1, A), complete_s(1, A)
    )
    assert lhs == rhs
