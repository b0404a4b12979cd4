"""Tests for the noncommutative Bell polynomial layer."""

import pytest

from wordbell.bell import word_bell_tpoly, word_partial_bell
from wordbell.combinatorics import SetPartition, bell_number, set_partitions
from wordbell.hopf import PHI, PSI, phi_elem, psi_product
from wordbell.lincomb import BasisError, LinComb
from wordbell.munthekaas import (
    complete_phi_matrix,
    derive,
    ebrahimi_coefficient,
    hessenberg_expansion,
    mb_partial,
    mb_tpoly,
    nc_mul,
    nc_one,
    nc_word,
    p_triangular,
    xi,
    zinbiel_left,
    zinbiel_right,
)


def test_derive():
    assert derive(nc_word(1)) == nc_word(2)
    assert derive(nc_one()) == LinComb.zero("NC")
    assert derive(nc_word(1, 1)) == nc_word(2, 1) + nc_word(1, 2)
    with pytest.raises(BasisError):
        derive(phi_elem(SetPartition([(1,)])))


def test_mb_low_degrees_verbatim():
    assert mb_tpoly(1)[1] == nc_word(1)
    mb2 = mb_tpoly(2)
    assert mb2[2] == nc_word(1, 1)
    assert mb2[1] == nc_word(2)
    mb3 = mb_tpoly(3)
    assert mb3[3] == nc_word(1, 1, 1)
    assert mb3[2] == nc_word(2, 1) * 2 + nc_word(1, 2)
    assert mb3[1] == nc_word(3)
    mb4 = mb_tpoly(4)
    assert mb4[4] == nc_word(1, 1, 1, 1)
    assert mb4[3] == nc_word(2, 1, 1) * 3 + nc_word(1, 2, 1) * 2 + nc_word(1, 1, 2)
    assert mb4[2] == nc_word(3, 1) * 3 + nc_word(2, 2) * 3 + nc_word(1, 3)
    assert mb4[1] == nc_word(4)


def test_mb_partial_outside_the_ladder_is_zero():
    # k = -1 must not read the top coefficient of the list
    for n in range(4):
        for k in (-1, n + 1):
            assert mb_partial(n, k) == LinComb.zero("NC")


def test_xi_examples_and_morphism():
    assert xi(word_partial_bell(3, 2)) == nc_word(1, 2) + nc_word(2, 1) * 2
    assert xi(phi_elem(SetPartition())) == nc_one()
    for n in range(7):
        for k in range(n + 1):
            assert xi(word_partial_bell(n, k)) == mb_partial(n, k)
    # morphism of algebras on small homogeneous pairs
    from wordbell.hopf import phi_product

    elems = [phi_elem(p) for n in range(1, 4) for p in set_partitions(n)]
    for x in elems:
        for y in elems:
            total = sum(k.size for e in (x, y) for k in e.keys())
            if total <= 5:
                assert xi(phi_product(x, y)) == nc_mul(xi(x), xi(y))


def test_ebrahimi_coefficients():
    assert ebrahimi_coefficient(3, 2, (2, 1)) == 2
    assert ebrahimi_coefficient(3, 2, (1, 2)) == 1
    assert ebrahimi_coefficient(5, 1, (5,)) == 1
    with pytest.raises(ValueError):
        ebrahimi_coefficient(4, 2, (1, 1))
    # against direct enumeration in minimum order, and the Bell total
    for n in range(1, 7):
        total = 0
        by_comp = {}
        for p in set_partitions(n):
            comp = p.block_sizes()
            by_comp[comp] = by_comp.get(comp, 0) + 1
        for comp, count in by_comp.items():
            assert ebrahimi_coefficient(n, len(comp), comp) == count
            total += count
        assert total == bell_number(n)
        for k in range(1, n + 1):
            from wordbell.bell import eval_partial_bell
            from wordbell.combinatorics import ONES

            mass = sum(c for _, c in mb_partial(n, k).items())
            assert mass == eval_partial_bell(ONES, n, k)


def test_zinbiel_symmetry_and_split():
    elems = [phi_elem(p) for n in (1, 2) for p in set_partitions(n)]
    for x in elems:
        for y in elems:
            assert zinbiel_left(x, y) == zinbiel_right(y, x)
            full = psi_product(x.retag(PSI), y.retag(PSI)).retag(PHI)
            assert zinbiel_left(x, y) + zinbiel_right(x, y) == full
    one_block = phi_elem(SetPartition([(1,)]))
    assert zinbiel_left(one_block, one_block) == phi_elem(SetPartition([(1,), (2,)]))


def test_zinbiel_axioms():
    elems = [phi_elem(p) for n in (1, 2) for p in set_partitions(n)]
    for u in elems:
        for v in elems:
            for w in elems:
                total = sum(k.size for e in (u, v, w) for k in e.keys())
                if total > 4:
                    continue
                zl, zr = zinbiel_left, zinbiel_right
                assert zl(zl(u, v), w) == zl(u, zl(v, w)) + zl(u, zr(v, w))
                assert zl(zr(u, v), w) == zr(u, zl(v, w))
                assert zr(u, zr(v, w)) == zr(zl(u, v), w) + zr(zr(u, v), w)


def test_p_triangular():
    entry = complete_phi_matrix(1)
    p1 = p_triangular(entry, 1)
    assert p1[1] == phi_elem(SetPartition.single_block(1))
    assert len(p1) == 2
    # P(A_0) = 1 is Phi of the empty partition, as the ladder's degree-0 polynomial
    assert p_triangular(entry, 0) == [phi_elem(SetPartition())] == word_bell_tpoly(0)
    # and the fold starts from it: its right half-shuffle with an entry is the entry
    for j in range(1, 5):
        a = phi_elem(SetPartition.single_block(j))
        assert zinbiel_right(phi_elem(SetPartition()), a) == a
    a = phi_elem(SetPartition([(1, 3), (2,)])) * 2 + phi_elem(SetPartition.single_block(2))
    assert zinbiel_right(phi_elem(SetPartition()), a) == a
    # the complete-function matrix grades by block count
    for n in range(1, 7):
        poly = p_triangular(complete_phi_matrix(n), n)
        for k in range(1, n + 1):
            assert poly[k] == word_partial_bell(n, k)
        assert not poly[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: word_bell_tpoly(-1),
        lambda: mb_tpoly(-2),
        lambda: p_triangular(complete_phi_matrix(1), -1),
        lambda: p_triangular(complete_phi_matrix(1), -2),
    ],
    ids=["word_bell_tpoly(-1)", "mb_tpoly(-2)", "p_triangular(-1)", "p_triangular(-2)"],
)
def test_t_graded_builders_reject_a_negative_degree(build):
    with pytest.raises(ValueError):
        build()


def test_p_triangular_structure_matches_expansion():
    # P(A_3; t) = t^3 (a11 < a22) < a33 + t^2 (a11 < a23 + a12 < a33) + t a13
    entry = complete_phi_matrix(3)
    poly = p_triangular(entry, 3)
    a = {(i, j): entry(i, j) for i in (1, 2, 3) for j in range(i, 4)}
    t3 = zinbiel_right(zinbiel_right(a[1, 1], a[2, 2]), a[3, 3])
    t2 = zinbiel_right(a[1, 1], a[2, 3]) + zinbiel_right(a[1, 2], a[3, 3])
    t1 = a[1, 3]
    assert poly[3] == t3
    assert poly[2] == t2
    assert poly[1] == t1


def test_hessenberg():
    assert hessenberg_expansion(1) == nc_word(1)
    want3 = nc_word(3) + nc_word(2, 1) * 2 + nc_word(1, 2) + nc_word(1, 1, 1)
    assert hessenberg_expansion(3) == want3
    for n in range(1, 7):
        assert hessenberg_expansion(n) == sum(mb_tpoly(n), LinComb.zero("NC"))
