"""Tests for classical, word, colored and shuffle Bell polynomials."""

import math
import random
from fractions import Fraction

import pytest

from wordbell.bell import (
    alpha,
    beta,
    colored_psi_bell,
    colored_psi_complete,
    complete_bell_column,
    complete_bell_poly,
    deriv,
    deriv_via_monomial,
    eval_complete_bell,
    eval_complete_bell_via_gf,
    eval_partial_bell,
    eval_partial_bell_direct,
    gamma,
    gamma_beta,
    identity_suite,
    partial_bell_band,
    partial_bell_poly,
    psi_atom,
    shuffle_partial_bell,
    word_bell_tpoly,
    word_complete_bell,
    word_partial_bell,
)
from wordbell.combinatorics import (
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    TREE,
    ColorSequence,
    SetPartition,
    colored_partitions,
    set_partitions,
)
from wordbell.hopf import phi_elem, psi_elem, psi_product
from wordbell.lincomb import BasisError, LinComb
from wordbell.realization import WORD, expand_phi, expand_psi, letters, shuffle_bell_series
from wordbell.symfun import h_from_c
from wordbell.sympoly import SparsePoly
from wordbell.verify import _colored_psi_bell_table, bell_suite


def sp(blocks):
    return SetPartition(blocks)


# ---------------------------------------------------------------------------
# oracles


def stirling2(n, k):
    if n == 0 and k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def marked_gf_coefficient(a, n, k):
    """[x^k t^n / n!] exp(x sum a_i t^i / i!) computed with plain lists."""
    # rows[m] maps x-degree -> coefficient of t^m
    rows = [{0: Fraction(1)}]
    for m in range(1, n + 1):
        acc = {}
        for j in range(1, m + 1):
            f_j = Fraction(a[j - 1]) / math.factorial(j)
            if not f_j:
                continue
            for deg, c in rows[m - j].items():
                acc[deg + 1] = acc.get(deg + 1, Fraction(0)) + Fraction(j, m) * f_j * c
        rows.append(acc)
    return rows[n].get(k, Fraction(0)) * math.factorial(n)


# ---------------------------------------------------------------------------
# classical symbolic and numeric


def test_symbolic_basics():
    assert complete_bell_poly(0) == 1
    assert partial_bell_poly(0, 0) == 1
    assert partial_bell_poly(3, 5) == SparsePoly.zero()
    assert partial_bell_poly(3, 2) == SparsePoly.var(1) * SparsePoly.var(2) * 3
    # A_n = sum_k B_{n,k}
    for n in range(7):
        total = SparsePoly.zero()
        for k in range(n + 1):
            total = total + partial_bell_poly(n, k)
        assert total == complete_bell_poly(n)


def test_stirling_specialization_symbolic():
    for n in range(10):
        for k in range(n + 1):
            value = partial_bell_poly(n, k).evaluate(lambda i: 1)
            assert value == stirling2(n, k)


def stirling1_unsigned(n, k):
    if n == 0 and k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return (n - 1) * stirling1_unsigned(n - 1, k) + stirling1_unsigned(n - 1, k - 1)


def test_verify_stirling_closed_forms_match_their_recurrences():
    from wordbell.verify import _stirling1_unsigned, _stirling2

    for n in range(13):
        for k in range(n + 2):
            assert _stirling2(n, k) == stirling2(n, k)
            assert _stirling1_unsigned(n, k) == stirling1_unsigned(n, k)


def test_partial_bell_matches_double_gf():
    rng = random.Random(11)
    for _ in range(3):
        a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)]
        for n in range(9):
            for k in range(n + 1):
                assert eval_partial_bell(a, n, k) == marked_gf_coefficient(a, n, k)


def test_eval_closed_forms():
    assert eval_partial_bell(FACTORIAL, 4, 2) == 36
    assert eval_partial_bell(IDEMPOTENT, 4, 2) == 24
    assert eval_partial_bell(SHIFTED_FACTORIAL, 4, 2) == 11
    assert eval_partial_bell(TREE, 3, 2) == 6
    assert eval_partial_bell(ONES, 4, 2) == 7 == len(word_partial_bell(4, 2))
    for n in range(9):
        for k in range(1, n + 1):
            lah = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
            assert eval_partial_bell(FACTORIAL, n, k) == lah
            idem = math.comb(n, k) * k ** (n - k)
            assert eval_partial_bell(IDEMPOTENT, n, k) == idem
            tree = math.comb(n - 1, k - 1) * n ** (n - k)
            assert eval_partial_bell(TREE, n, k) == tree


def test_stirling1_against_cycle_enumeration():
    from itertools import permutations

    for n in range(7):
        counts = {}
        for line in permutations(range(1, n + 1)):
            seen = [False] * (n + 1)
            cycles = 0
            for start in range(1, n + 1):
                if seen[start]:
                    continue
                cycles += 1
                x = start
                while not seen[x]:
                    seen[x] = True
                    x = line[x - 1]
            counts[cycles] = counts.get(cycles, 0) + 1
        for k in range(1, n + 1):
            assert eval_partial_bell(SHIFTED_FACTORIAL, n, k) == counts.get(k, 0)


def test_fast_paths_agree_with_direct():
    rng = random.Random(23)
    for _ in range(10):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        zero_head = [Fraction(0)] + a[1:]
        for seq in (a, zero_head):
            for n in range(8):
                for k in range(n + 1):
                    assert eval_partial_bell(seq, n, k) == eval_partial_bell_direct(
                        seq, n, k
                    )


GRID_SEQUENCES = {
    "integral": [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9],
    "rational": [Fraction(2, 3), Fraction(-1, 2), 5, Fraction(7, 4), 0, Fraction(-3, 5), 1]
    + [Fraction(m, m + 3) for m in range(1, 7)],
    "a1 = 0": [0, 2, Fraction(-1, 3), 4, 0, 1, Fraction(5, 2), -2, 3, 1, 0, 7, 1],
    "negative a1": [-2, 3, Fraction(1, 2), -1, 6, 0, 2, -3, Fraction(4, 3), 1, 5, -1, 2],
}


@pytest.mark.parametrize("name", sorted(GRID_SEQUENCES))
def test_band_matches_direct_on_grid(name):
    a = GRID_SEQUENCES[name]
    band = partial_bell_band(a, 12, 12)
    for n in range(13):
        for k in range(n + 1):
            want = eval_partial_bell_direct(a, n, k)
            assert band[k][n - k] == want
            assert eval_partial_bell(a, n, k) == want
    # integral entries are ints; for the integral sequence that is every entry
    assert all(type(v) is int for row in band for v in row if v.denominator == 1)


def test_eval_partial_bell_returns_fraction():
    for a in (ONES, [1, 2, 3], [Fraction(1, 2)] * 4):
        for n, k in ((0, 0), (3, 0), (4, 2), (4, 4), (2, 3)):
            assert type(eval_partial_bell(a, n, k)) is Fraction
    assert type(eval_complete_bell(ONES, 5)) is Fraction
    assert eval_partial_bell(ONES, 4, 2) / math.factorial(4) == Fraction(7, 24)


def test_triangle_reads_only_its_prefix():
    def bounded(limit):
        def a(i):
            if not 1 <= i <= limit:
                raise IndexError(f"a_{i} read, only a_1..a_{limit} allowed")
            return i * i - 3
        return a

    for n in range(10):
        for k in range(n + 1):
            got = eval_partial_bell(bounded(n - k + 1), n, k)
            assert got == eval_partial_bell_direct(lambda i: i * i - 3, n, k)
    partial_bell_band(bounded(4), 6, 3)
    complete_bell_column(bounded(5), 5)


def test_complete_column_is_exact_and_integral():
    column = complete_bell_column(FACTORIAL, 10)
    assert all(type(v) is int for v in column)
    assert column == [eval_complete_bell_via_gf(FACTORIAL, n) for n in range(11)]
    a = GRID_SEQUENCES["rational"]
    assert complete_bell_column(a, 8) == [eval_complete_bell_via_gf(a, n) for n in range(9)]


def test_complete_recurrence_vs_gf():
    rng = random.Random(5)
    for _ in range(5):
        a = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(8)]
        for n in range(8):
            assert eval_complete_bell(a, n) == eval_complete_bell_via_gf(a, n)


def test_counts_match_enumeration():
    for seq in (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT):
        for n in range(7):
            pool = colored_partitions(seq, n)
            assert len(pool) == eval_complete_bell(seq, n)
            for k in range(n + 1):
                count = sum(1 for p in pool if p.part_count == k)
                assert count == eval_partial_bell(seq, n, k)


# ---------------------------------------------------------------------------
# ladder operator and word Bell polynomials


def test_deriv_examples():
    x = phi_elem(sp([(1, 3), (2, 4)]))
    got = deriv(x)
    assert got == phi_elem(sp([(1, 3, 5), (2, 4)])) + phi_elem(sp([(1, 3), (2, 4, 5)]))
    assert deriv(phi_elem(SetPartition())) == LinComb.zero("Phi")
    with pytest.raises(BasisError):
        deriv(psi_elem(sp([(1,)])))


def test_deriv_via_monomial_identity():
    for n in range(6):
        for p in set_partitions(n):
            e = phi_elem(p)
            assert deriv(e) == deriv_via_monomial(e)


def test_word_partial_bell_four_two():
    got = word_partial_bell(4, 2)
    keys = [
        [(1, 3, 4), (2,)],
        [(1, 2, 3), (4,)],
        [(1, 2, 4), (3,)],
        [(1, 2), (3, 4)],
        [(1, 3), (2, 4)],
        [(1, 4), (2, 3)],
        [(1,), (2, 3, 4)],
    ]
    assert got == LinComb("Phi", {sp(b): 1 for b in keys})


def test_word_bell_enumeration():
    # the served enumeration against set_partitions and against the ladder that defines it
    assert word_complete_bell(0) == phi_elem(SetPartition())
    for n in range(8):
        ladder = word_bell_tpoly(n)
        assert word_complete_bell(n) == LinComb(
            "Phi", {p: 1 for p in set_partitions(n)}
        )
        assert word_complete_bell(n) == sum(ladder, LinComb.zero("Phi"))
        for k in range(n + 1):
            want = LinComb(
                "Phi", {p: 1 for p in set_partitions(n) if p.part_count == k}
            )
            assert word_partial_bell(n, k) == want
            assert word_partial_bell(n, k) == ladder[k]
    # the t-polynomial has degree n: n + 1 coefficients
    assert len(word_bell_tpoly(4)) == 4 + 1


def test_word_partial_bell_outside_the_ladder_is_zero():
    # k = -1 must not read the top coefficient of the list
    for n in range(4):
        for k in (-1, n + 1):
            assert word_partial_bell(n, k) == LinComb.zero("Phi")


# ---------------------------------------------------------------------------
# colored dual-side Bell polynomials


def test_colored_psi_bell_enumerates():
    # the served enumeration against colored_partitions and against [t^n] F^k / k!,
    # computed by the verify oracle's power chain
    for spec in (
        "ones", "factorial", "shifted-factorial", "idempotent", "bell", "tree", "0,1,3 tail:1", "1,1 tail:0",
    ):
        seq = ColorSequence.parse(spec)
        table = _colored_psi_bell_table(seq, 6)
        for n in range(7):
            for k in range(-1, n + 2):
                got = colored_psi_bell(seq, n, k)
                want = LinComb(
                    "Psi",
                    {p: 1 for p in colored_partitions(seq, n) if p.part_count == k},
                )
                assert got == want
                assert got == (table[k][n] if 0 <= k <= n else LinComb.zero("Psi"))
            assert colored_psi_complete(seq, n) == LinComb(
                "Psi", {p: 1 for p in colored_partitions(seq, n)}
            )
            assert colored_psi_complete(seq, n) == sum(
                (table[k][n] for k in range(n + 1)), LinComb.zero("Psi")
            )


def test_colored_psi_bell_counts():
    assert len(colored_psi_bell(FACTORIAL, 4, 2)) == 36
    assert gamma(colored_psi_bell(FACTORIAL, 4, 2)) == Fraction(36, 24)
    single = colored_psi_bell(ONES, 3, 3)
    assert len(single) == 1
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert len(colored_psi_bell(SHIFTED_FACTORIAL, n, k)) == eval_partial_bell(
                SHIFTED_FACTORIAL, n, k
            )


def test_psi_atom():
    atom = psi_atom(IDEMPOTENT, 2)
    assert len(atom) == 2
    assert all(key.part_count == 1 and key.size == 2 for key in atom.keys())
    with pytest.raises(ValueError):
        psi_atom(IDEMPOTENT, 0)


def test_bell_key_builders_pass_the_right_size():
    # deriv, psi_atom and beta build keys through _trusted, which takes the size on trust
    def sized(key):
        return key.size == sum(len(b) for b in key.blocks)

    for n in range(5):
        everything = LinComb("Phi", {p: 1 for p in set_partitions(n)})
        assert all(map(sized, deriv(everything).keys()))
        assert all(map(sized, psi_atom(FACTORIAL, n + 1).keys()))
        assert all(map(sized, beta(everything.retag("Psi"), FACTORIAL).keys()))


# ---------------------------------------------------------------------------
# shuffle Bell polynomials


def test_shuffle_bell_trivial_cases():
    family = [None] + [expand_phi(SetPartition.single_block(m), 3) for m in range(1, 5)]
    assert shuffle_partial_bell(family, 0, 0) == LinComb.term("Word", ())
    assert not shuffle_partial_bell(family, 3, 0)
    for n in range(3):
        assert not shuffle_partial_bell(family, n, -1)
    for n in range(1, 4):
        assert shuffle_partial_bell(family, n, 1) == family[n]


def test_shuffle_bell_families():
    for n in range(1, 6):
        phi_family = [None] + [expand_phi(SetPartition.single_block(m), n) for m in range(1, n + 1)]
        psi_family = [None] + [expand_psi(SetPartition.single_block(m), n) for m in range(1, n + 1)]
        for k in range(1, n + 1):
            want_phi = LinComb.zero("Word")
            want_psi = LinComb.zero("Word")
            for p in set_partitions(n):
                if p.part_count == k:
                    want_phi = want_phi + expand_phi(p, n)
                    want_psi = want_psi + expand_psi(p, n)
            assert shuffle_partial_bell(phi_family, n, k) == want_phi
            assert shuffle_partial_bell(psi_family, n, k) == want_psi
        total = sum(
            (shuffle_partial_bell(phi_family, n, k) for k in range(1, n + 1)), LinComb.zero("Word")
        )
        want = LinComb.zero("Word")
        for p in set_partitions(n):
            want = want + expand_phi(p, n)
        assert total == want


def test_shuffle_bell_series_keeps_int_coefficients():
    A = letters(1, 2)
    generators = [None, expand_phi(SetPartition.single_block(1), 2)]
    powered = shuffle_bell_series(generators, 2, 2)
    # (a1 + a2) shuffled with itself is 2 a1a1 + 2 a1a2 + 2 a2a1 + 2 a2a2; over 2!
    assert powered[2] == LinComb("Word", {(x, y): 1 for x in A for y in A})
    assert all(type(c) is int for _, c in powered[2].items())


def test_shuffle_bell_rejects_inhomogeneous():
    bad = [None, expand_phi(SetPartition.single_block(2), 2)]
    with pytest.raises(ValueError):
        shuffle_partial_bell(bad, 2, 1)


# ---------------------------------------------------------------------------
# morphisms


def test_alpha_expands_h_to_all_partitions():
    for n in range(6):
        got = alpha(h_from_c(n))
        assert got == LinComb("Psi", {p: 1 for p in set_partitions(n)})


def test_beta_colors_keys():
    x = psi_elem(sp([(1, 2), (3,)]))
    got = beta(x, IDEMPOTENT)
    assert len(got) == 2  # two colors for the 2-block, one for the singleton
    assert all(key.underlying() == sp([(1, 2), (3,)]) for key in got.keys())
    involutions = beta(psi_elem(sp([(1, 2, 3)])), ColorSequence.explicit([1, 1]))
    assert not involutions


def test_gamma_values_and_diagram():
    assert gamma(psi_elem(sp([(1, 2), (3,)]))) == Fraction(1, 6)
    for seq in (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT):
        for n in range(6):
            got = gamma_beta(alpha(h_from_c(n)), seq)
            assert got == eval_complete_bell(seq, n) / math.factorial(n)
    # ones: the composite gives Bell numbers over n!
    for n in range(6):
        got = gamma_beta(alpha(h_from_c(n)), ONES)
        assert got * math.factorial(n) == eval_complete_bell(ONES, n)


def test_bell_suite_diagram_and_gamma_items_pass():
    report = [i for i in bell_suite(max_n=5) if i["identity"].startswith(("diagram", "gamma multiplicative"))]
    assert len(report) == 10
    assert all(item["status"] == "pass" for item in report)


def test_dual_pairing_of_both_bell_polynomials():
    # pairing the Phi-side and Psi-side partial Bell polynomials counts the
    # partitions with k blocks, independently of the block-size morphism;
    # Phi and Psi are dual bases, so the pairing is a coefficient dot product
    from wordbell.symfun import h_k_part

    for n in range(6):
        for k in range(n + 1):
            dual_side = alpha(h_k_part(n, k))
            got = sum(c * dual_side.coeff(key) for key, c in word_partial_bell(n, k).items())
            assert got == stirling2(n, k)


# ---------------------------------------------------------------------------
# the word identity suite (spot cases; the full grid runs in acceptance)


def test_identity_suite_spot_cases():
    from wordbell.bell import binomiality_check, identity_suite, prop_s_form_check

    assert prop_s_form_check(3, 1)["status"] == "pass"
    assert prop_s_form_check(4, 2)["status"] == "pass"
    assert binomiality_check(3, 1, 1)["status"] == "pass"
    convolution = {i["range"]: i["status"] for i in identity_suite("convolution", 3, 1)}
    assert convolution["n=3, k=1, L=2"] == "pass"
    composition = {i["range"]: i["status"] for i in identity_suite("composition", 4, 2)}
    assert composition["n=4, k1=2, k2=1, L=2"] == "pass"
    assert composition["n=4, k1=1, k2=2, L=2"] == "pass"


def _restricted(x, allowed):
    """The word polynomial x with only the words over the allowed letters."""
    return LinComb(WORD, ((w, c) for w, c in x.items() if set(w) <= allowed))


def test_binomiality_truncation_is_a_restriction_of_the_wider_one():
    # Binomiality used n - min(k1, k2) letters of A''; its series, restricted
    # to k letters of A' and max(n - k, 1) of A'', are the series computed there.
    from wordbell import bell

    for n in range(1, 5):
        for k1 in range(1, n + 1):
            for k2 in range(k1, n - k1 + 1):
                k = k1 + k2
                a_prime = letters(1, k)
                wide = letters(2, n - k1)
                narrow = letters(2, max(n - k, 1))
                assert bell._faithful_alphabets(n, k) == (a_prime, narrow)
                allowed = set(a_prime) | set(narrow)
                for part_count in (k, k1, k2):
                    got = [
                        _restricted(x, allowed)
                        for x in bell.mixed_bell_series(a_prime, wide, part_count, n)
                    ]
                    assert got == bell.mixed_bell_series(a_prime, narrow, part_count, n)


def test_binomiality_sees_a_word_on_every_letter_of_both_alphabets(monkeypatch):
    # A defect on one word with k distinct A' letters and n - k distinct A''
    # letters, visible only where the alphabets hold those letters.
    from wordbell import bell

    n, k1, k2 = 4, 1, 1
    extra = ((1, 1), (2, 1), (1, 2), (2, 2))
    real = bell.mixed_bell_series

    def with_extra_word(a_prime, a_second, k, order):
        series = list(real(a_prime, a_second, k, order))
        if k == k1 + k2 and set(extra) <= set(a_prime) | set(a_second):
            series[n] = series[n] + LinComb.term(WORD, extra)
        return series

    assert bell.binomiality_check(n, k1, k2)["status"] == "pass"
    monkeypatch.setattr(bell, "mixed_bell_series", with_extra_word)
    item = bell.binomiality_check(n, k1, k2)
    assert item["status"] == "fail"
    assert item["counterexample"] == {"n": 4, "k1": 1, "k2": 1}
