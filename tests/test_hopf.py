"""Tests for the Hopf structure: products, coproducts, bases, duality."""

from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

import wordbell.hopf as hopf
from wordbell.combinatorics import (
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    ColoredSetPartition,
    ColorSequence,
    SetPartition,
    coarsenings,
    colored_partitions,
    refines,
    set_partitions,
)
from wordbell.hopf import (
    MONOMIAL,
    antipode,
    complete_to_psi,
    monomial_to_phi,
    one,
    phi_coproduct,
    phi_elem,
    phi_product,
    phi_to_monomial,
    psi_coproduct,
    psi_elem,
    psi_product,
    tensor_multiply,
    tensor_swap,
)
from wordbell.lincomb import BasisError, LinComb, tensor_tag
from wordbell.verify import DEFAULT_SEQUENCES

CONST9 = ColorSequence.constant(9)


def csp(parts, seq=CONST9):
    return ColoredSetPartition(parts, seq)


def test_phi_product_worked_example():
    x = phi_elem(csp([((1, 3, 5), 3), ((2, 4), 1)]))
    y = phi_elem(csp([((1, 2, 5), 4), ((3,), 1), ((4,), 2)]))
    want = phi_elem(
        csp([((1, 3, 5), 3), ((2, 4), 1), ((6, 7, 10), 4), ((8,), 1), ((9,), 2)])
    )
    assert phi_product(x, y) == want


def test_phi_product_unit_and_grading():
    x = phi_elem(csp([((1, 2), 7)]))
    assert phi_product(one(seq=CONST9), x) == x
    assert phi_product(x, one(seq=CONST9)) == x
    y = phi_elem(csp([((1,), 2), ((2,), 1)]))
    prod = phi_product(x, y)
    assert all(key.size == 4 for key in prod.keys())
    with pytest.raises(BasisError):
        phi_product(x, psi_elem(csp([((1,), 1)])))


def test_phi_coproduct_worked_example():
    key = csp([((1, 3), 5), ((2,), 3)])
    cop = phi_coproduct(phi_elem(key))
    empty = ColoredSetPartition.empty(CONST9)
    pair = csp([((1, 2), 5)])
    single = csp([((1,), 3)])
    assert cop.coeff((key, empty)) == 1
    assert cop.coeff((empty, key)) == 1
    assert cop.coeff((pair, single)) == 1
    assert cop.coeff((single, pair)) == 1
    assert len(cop) == 4


def test_phi_coproduct_trivial_and_cocommutative():
    assert phi_coproduct(one(seq=CONST9)).coeff(
        (ColoredSetPartition.empty(CONST9), ColoredSetPartition.empty(CONST9))
    ) == 1
    for n in range(5):
        for key in colored_partitions(IDEMPOTENT, n):
            cop = phi_coproduct(phi_elem(key))
            assert tensor_swap(cop) == cop


def test_psi_product_worked_example():
    x = psi_elem(csp([((1, 2), 3)]))
    y = psi_elem(csp([((1,), 4), ((2,), 1)]))
    got = psi_product(x, y)
    expected_parts = [
        [((1, 2), 3), ((3,), 4), ((4,), 1)],
        [((1, 3), 3), ((2,), 4), ((4,), 1)],
        [((1, 4), 3), ((2,), 4), ((3,), 1)],
        [((2, 3), 3), ((1,), 4), ((4,), 1)],
        [((2, 4), 3), ((1,), 4), ((3,), 1)],
        [((3, 4), 3), ((1,), 4), ((2,), 1)],
    ]
    assert got == LinComb("Psi", {csp(p): 1 for p in expected_parts})


def test_psi_product_unit_commutative():
    x = psi_elem(csp([((1, 2), 3)]))
    assert psi_product(one("Psi", CONST9), x) == x
    y = psi_elem(csp([((1,), 1), ((2,), 2)]))
    assert psi_product(x, y) == psi_product(y, x)


def test_psi_coproduct_worked_example():
    key = csp([((1, 3), 3), ((2,), 4), ((4,), 1)])
    cop = psi_coproduct(psi_elem(key))
    empty = ColoredSetPartition.empty(CONST9)
    left = csp([((1, 3), 3), ((2,), 4)])
    right = csp([((1,), 1)])
    assert cop.coeff((key, empty)) == 1
    assert cop.coeff((empty, key)) == 1
    assert cop.coeff((left, right)) == 1
    assert len(cop) == 3


def test_psi_coassociativity_small():
    for n in range(5):
        for key in colored_partitions(FACTORIAL, n):
            cop = psi_coproduct(psi_elem(key))
            lhs = {}
            rhs = {}
            for (a, b), c in cop.items():
                for (a1, a2), c2 in psi_coproduct(psi_elem(a)).items():
                    lhs[(a1, a2, b)] = lhs.get((a1, a2, b), 0) + c * c2
                for (b1, b2), c2 in psi_coproduct(psi_elem(b)).items():
                    rhs[(a, b1, b2)] = rhs.get((a, b1, b2), 0) + c * c2
            assert {k: v for k, v in lhs.items() if v} == {
                k: v for k, v in rhs.items() if v
            }


def test_phi_to_monomial_worked_example():
    pi = SetPartition([(1, 4), (2, 5, 6), (3, 7)])
    got = phi_to_monomial(phi_elem(pi))
    expected = [
        [(1, 4), (2, 5, 6), (3, 7)],
        [(1, 2, 4, 5, 6), (3, 7)],
        [(1, 3, 4, 7), (2, 5, 6)],
        [(1, 4), (2, 3, 5, 6, 7)],
        [(1, 2, 3, 4, 5, 6, 7)],
    ]
    assert got == LinComb("M", {SetPartition(b): 1 for b in expected})


def test_phi_to_monomial_on_singletons_and_round_trip():
    for n in range(6):
        singles = SetPartition.singletons(n)
        expansion = phi_to_monomial(phi_elem(singles))
        assert expansion == LinComb("M", {q: 1 for q in set_partitions(n)})
        for p in set_partitions(n):
            e = phi_elem(p)
            assert monomial_to_phi(phi_to_monomial(e)) == e
            back = phi_to_monomial(monomial_to_phi(LinComb.term(MONOMIAL, p)))
            assert back == LinComb.term(MONOMIAL, p)


def _monomial_in_phi_by_triangular_solve(key, memo):
    # the inversion of Phi_pi = sum_{pi <= q} M_q over the coarsening order:
    # M_pi = Phi_pi - sum of M_q over the strictly coarser q
    if key not in memo:
        out = phi_elem(key)
        for q in coarsenings(key):
            if q != key:
                out = out - _monomial_in_phi_by_triangular_solve(q, memo)
        memo[key] = out
    return memo[key]


def test_monomial_to_phi_moebius_matches_the_triangular_solve():
    memo = {}
    for n in range(6):
        for p in set_partitions(n):
            got = monomial_to_phi(LinComb.term(MONOMIAL, p))
            assert got == _monomial_in_phi_by_triangular_solve(p, memo)
            assert phi_to_monomial(got) == LinComb.term(MONOMIAL, p)
    # the coefficient of the single block is mu(0, 1) = (-1)^(n-1) (n-1)!
    for n, mu in ((4, -6), (5, 24)):
        got = monomial_to_phi(LinComb.term(MONOMIAL, SetPartition.singletons(n)))
        assert got.coeff(SetPartition.single_block(n)) == mu


def test_phi_to_monomial_rejects_colored():
    with pytest.raises(BasisError):
        phi_to_monomial(phi_elem(csp([((1,), 1)])))


def test_triangularity():
    for n in range(6):
        for p in set_partitions(n):
            expansion = phi_to_monomial(phi_elem(p))
            assert expansion.coeff(p) == 1
            assert all(refines(p, q) for q in expansion.keys())
            assert set(expansion.keys()) == set(coarsenings(p))


def test_complete_to_psi():
    assert complete_to_psi(SetPartition.singletons(3)) == psi_elem(
        SetPartition.singletons(3)
    )
    got = complete_to_psi(SetPartition([(1, 2)]))
    assert got == psi_elem(SetPartition([(1, 2)])) + psi_elem(
        SetPartition([(1,), (2,)])
    )


def test_duality_pairings():
    # <S_pi1, M_pi2> = delta through the expansions, n <= 4; Phi and Psi are
    # dual bases, so the pairing is the dot product of the coefficients
    for n in range(5):
        for pa in set_partitions(n):
            s_exp = complete_to_psi(pa)  # S in Psi coordinates
            for pb in set_partitions(n):
                m_exp = monomial_to_phi(LinComb.term(MONOMIAL, pb))  # M in Phi coordinates
                got = sum(c * s_exp.coeff(key) for key, c in m_exp.items())
                assert got == (1 if pa == pb else 0)


def test_hopf_duality_adjointness_example():
    # <Phi_a Phi_b, Psi_c> = <Phi_a (x) Phi_b, Delta_Psi(Psi_c)>
    for n1 in (1, 2):
        for n2 in (1, 2):
            for a in set_partitions(n1):
                for b in set_partitions(n2):
                    prod = phi_product(phi_elem(a), phi_elem(b))
                    for c in set_partitions(n1 + n2):
                        assert prod.coeff(c) == psi_coproduct(psi_elem(c)).coeff((a, b))


def test_bialgebra_compatibility_small_colored():
    keys1 = colored_partitions(IDEMPOTENT, 1)
    keys2 = colored_partitions(IDEMPOTENT, 2)
    for a in keys1 + keys2:
        for b in keys1 + keys2:
            lhs = phi_coproduct(phi_product(phi_elem(a), phi_elem(b)))
            rhs = tensor_multiply(
                phi_coproduct(phi_elem(a)),
                phi_coproduct(phi_elem(b)),
                lambda x, y: phi_product(phi_elem(x), phi_elem(y)),
            )
            assert lhs == rhs
            lhs = psi_coproduct(psi_product(psi_elem(a), psi_elem(b)))
            rhs = tensor_multiply(
                psi_coproduct(psi_elem(a)),
                psi_coproduct(psi_elem(b)),
                lambda x, y: psi_product(psi_elem(x), psi_elem(y)),
            )
            assert lhs == rhs


def test_antipode_basics_and_axiom():
    assert antipode(one()) == one()
    k1 = SetPartition([(1,)])
    assert antipode(phi_elem(k1)) == -phi_elem(k1)
    for seq in (ONES, IDEMPOTENT):
        for n in range(5):
            for key in colored_partitions(seq, n):
                cop = phi_coproduct(phi_elem(key))
                total = LinComb.zero("Phi")
                for (l, r), c in cop.items():
                    total = total + phi_product(antipode(phi_elem(l)), phi_elem(r)) * c
                expected = one(seq=seq) if n == 0 else LinComb.zero("Phi")
                assert total == expected


def test_antipode_is_an_involution_and_reverses_products():
    # The Phi side is cocommutative, so S is an involution, and S(xy) = S(y) S(x)
    # in any Hopf algebra.  The antipode computes every key that splits by that
    # second rule, so the involution and the Takeuchi oracle below are the
    # checks independent of how it is computed.
    for seq in DEFAULT_SEQUENCES:
        by_size = [[phi_elem(key) for key in colored_partitions(seq, n)] for n in range(6)]
        for xs in by_size:
            for x in xs:
                assert antipode(antipode(x)) == x
        for n in range(6):
            for m in range(6 - n):
                for x in by_size[n]:
                    sx = antipode(x)
                    for y in by_size[m]:
                        assert antipode(phi_product(x, y)) == phi_product(antipode(y), sx)


def _takeuchi(key):
    # S(Phi_pi) = sum over the ordered set partitions (G1, ..., Gj) of pi's parts
    # of (-1)^j Phi_{std G1} ... Phi_{std Gj}: no recursion and no factorization
    total = LinComb.zero("Phi")
    for groups in set_partitions(key.part_count):
        for order in permutations(groups.blocks):
            term = one(seq=key.seq)
            for group in order:
                term = phi_product(term, phi_elem(key.sub_std(i - 1 for i in group)))
            total = total + term * (-1) ** len(order)
    return total


def test_antipode_matches_takeuchis_formula():
    ranges = [(seq, 4) for seq in DEFAULT_SEQUENCES] + [(ONES, 5)]
    for seq, max_n in ranges:
        for n in range(max_n + 1):
            for key in colored_partitions(seq, n):
                assert antipode(phi_elem(key)) == _takeuchi(key), key


def test_antipodes_of_a_coproduct_table_match_the_antipode():
    # the table entry point reads each atom's coproduct off the table; the
    # one-element entry point computes it, and Takeuchi's formula needs neither
    for seq in DEFAULT_SEQUENCES:
        keys = [key for n in range(6) for key in colored_partitions(seq, n)]
        table = hopf.antipodes({key: phi_coproduct(phi_elem(key)) for key in keys})
        assert list(table) == keys
        for key in keys:
            assert table[key] == antipode(phi_elem(key)) == _takeuchi(key), key


def test_hopf_suite_enumerates_each_keys_splittings_once(monkeypatch):
    # the suite's Phi coproduct table is the only reader of part_bipartitions:
    # the antipodes are read off that table, so no atom enumerates again
    import wordbell
    from wordbell import verify

    wordbell.clear_caches()  # cold, as in a fresh process: no memo may hide a second enumeration
    real, seen = hopf.part_bipartitions, Counter()

    def recorded(key):
        seen[key] += 1  # keys over different sequences differ
        return real(key)

    monkeypatch.setattr(hopf, "part_bipartitions", recorded)
    verify.hopf_suite(4)
    assert seen == Counter(key for seq in DEFAULT_SEQUENCES for n in range(5) for key in colored_partitions(seq, n))


def test_tensor_multiply_matches_a_double_loop():
    def naive(s, t, product, base):
        total = LinComb.zero(tensor_tag(base))
        for (a, b), c1 in s.items():
            for (c, d), c2 in t.items():
                left = product(LinComb.term(base, a), LinComb.term(base, c))
                right = product(LinComb.term(base, b), LinComb.term(base, d))
                total = total + LinComb(tensor_tag(base), (
                    ((kl, kr), c1 * c2 * cl * cr)
                    for kl, cl in left.items()
                    for kr, cr in right.items()
                ))
        return total

    # t's keys are over an equal sequence held in another object
    named = ColorSequence.named("factorial")
    small = [k for n in range(3) for k in colored_partitions(FACTORIAL, n)]
    other = [k for n in range(3) for k in colored_partitions(named, n)]
    for base, product, elem in (("Phi", phi_product, phi_elem), ("Psi", psi_product, psi_elem)):
        s = LinComb(tensor_tag(base), (
            ((a, b), Fraction(i + 2, 3)) for i, (a, b) in enumerate(zip(small, small[::-1]))
        ))
        t = LinComb(tensor_tag(base), (
            ((c, d), -(i + 2)) for i, (c, d) in enumerate(zip(other[1:], other))
        ))
        assert len(s) > 1 and len(t) > 1
        got = tensor_multiply(s, t, lambda x, y: product(elem(x), elem(y)))
        assert got == naive(s, t, product, base) and len(got) >= len(s) * len(t)


def test_antipode_does_not_keep_values_of_a_patched_phi_product(monkeypatch):
    x = phi_elem(csp((((1, 3), 1), ((2,), 1)), FACTORIAL))
    fresh = antipode(x)
    with monkeypatch.context() as patch:
        real = hopf.phi_product
        patch.setattr(hopf, "phi_product", lambda a, b: real(a, b) * 2)
        while_patched = antipode(x)
    assert while_patched == antipode(x) == fresh
    assert fresh.coeff(csp((((1, 2), 1), ((3,), 1)), FACTORIAL)) == 1


def test_dimensions_match_complete_bell():
    from wordbell.bell import eval_complete_bell

    for seq in (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT):
        for n in range(7):
            assert len(colored_partitions(seq, n)) == eval_complete_bell(seq, n)
