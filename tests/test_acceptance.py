"""Acceptance criteria, one test per criterion at its stated range.

Every check is exact (tolerance zero); each test prints a single PASS/FAIL
line so the whole gate can be read off `pytest -s tests/test_acceptance.py`.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

from wordbell import bell, hopf, munthekaas, realization, verify
from wordbell.combinatorics import (
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    ColoredSetPartition,
    ColorSequence,
    SetPartition,
    colored_partitions,
    colored_partitions_k,
    count_by_type,
    set_partitions,
)
from wordbell.lincomb import LinComb

NAMED = (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT)


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


# ---------------------------------------------------------------------------


def test_criterion_01_colored_partitions_of_size_three():
    got = colored_partitions(IDEMPOTENT, 3)
    expected = [
        [((1, 2, 3), 1)],
        [((1, 2, 3), 2)],
        [((1, 2, 3), 3)],
        [((1, 2), 1), ((3,), 1)],
        [((1, 2), 2), ((3,), 1)],
        [((1, 3), 1), ((2,), 1)],
        [((1, 3), 2), ((2,), 1)],
        [((2, 3), 1), ((1,), 1)],
        [((2, 3), 2), ((1,), 1)],
        [((1,), 1), ((2,), 1), ((3,), 1)],
    ]
    want = {ColoredSetPartition(p, IDEMPOTENT) for p in expected}
    ok = len(got) == 10 and set(got) == want
    got_k = colored_partitions_k(IDEMPOTENT, 3, 2)
    want_k = {p for p in want if p.part_count == 2}
    ok = ok and len(got_k) == 6 and set(got_k) == want_k
    report(ok, "criterion 1: CP_3(1,2,3,...) and CP_{3,2} match the listed keys")


def test_criterion_02_partial_bell_specializations():
    ok = True
    for n in range(9):
        by_blocks = {}
        for p in set_partitions(n):
            by_blocks[p.part_count] = by_blocks.get(p.part_count, 0) + 1
        cycle_counts = {}
        for line in permutations(range(1, n + 1)):
            seen = [False] * (n + 1)
            cycles = 0
            for start in range(1, n + 1):
                if not seen[start]:
                    cycles += 1
                    x = start
                    while not seen[x]:
                        seen[x] = True
                        x = line[x - 1]
            cycle_counts[cycles] = cycle_counts.get(cycles, 0) + 1
        for k in range(n + 1):
            ok = ok and bell.eval_partial_bell(ONES, n, k) == by_blocks.get(
                k, 1 if (n == 0 and k == 0) else 0
            )
            expected_s1 = cycle_counts.get(k, 1 if (n == 0 and k == 0) else 0)
            ok = ok and bell.eval_partial_bell(SHIFTED_FACTORIAL, n, k) == expected_s1
            if k >= 1:
                lah = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                ok = ok and bell.eval_partial_bell(FACTORIAL, n, k) == lah
                idem = math.comb(n, k) * k ** (n - k)
                ok = ok and bell.eval_partial_bell(IDEMPOTENT, n, k) == idem
    report(ok, "criterion 2: Stirling/Lah/idempotent/|s| evaluations, n <= 8")


def test_criterion_03_sequence_prefixes():
    lists_prefix = [len(colored_partitions(FACTORIAL, n)) for n in range(6)]
    level2_prefix = [len(colored_partitions(ColorSequence.named("bell"), n)) for n in range(1, 6)]
    ok = lists_prefix == [1, 1, 3, 13, 73, 501]
    ok = ok and level2_prefix == [1, 3, 12, 60, 358]
    report(ok, "criterion 3: A000262 and A000258 prefixes by enumeration")


def test_criterion_04_hopf_axioms_exhaustive():
    max_n = 5
    ok = True
    for seq in NAMED:
        keys = {n: colored_partitions(seq, n) for n in range(max_n + 1)}
        phis = {n: [hopf.phi_elem(k) for k in keys[n]] for n in keys}
        psis = {n: [hopf.psi_elem(k) for k in keys[n]] for n in keys}

        # associativity, both sides
        for i in range(1, max_n - 1):
            for j in range(1, max_n - i):
                for k in range(1, max_n - i - j + 1):
                    for a in phis[i]:
                        for b in phis[j]:
                            for c in phis[k]:
                                ok = ok and hopf.phi_product(
                                    hopf.phi_product(a, b), c
                                ) == hopf.phi_product(a, hopf.phi_product(b, c))
                    for a in psis[i]:
                        for b in psis[j]:
                            for c in psis[k]:
                                ok = ok and hopf.psi_product(
                                    hopf.psi_product(a, b), c
                                ) == hopf.psi_product(a, hopf.psi_product(b, c))

        # coassociativity and counit, both sides
        for n in range(max_n + 1):
            for key in keys[n]:
                for elem, coproduct, basis in (
                    (hopf.phi_elem(key), hopf.phi_coproduct, hopf.PHI),
                    (hopf.psi_elem(key), hopf.psi_coproduct, hopf.PSI),
                ):
                    cop = coproduct(elem)
                    left, right = {}, {}
                    eps_left = LinComb.zero(basis)
                    eps_right = LinComb.zero(basis)
                    for (a, b), c in cop.items():
                        for (a1, a2), c2 in coproduct(LinComb.term(basis, a)).items():
                            left[(a1, a2, b)] = left.get((a1, a2, b), 0) + c * c2
                        for (b1, b2), c2 in coproduct(LinComb.term(basis, b)).items():
                            right[(a, b1, b2)] = right.get((a, b1, b2), 0) + c * c2
                        if a.size == 0:
                            eps_left = eps_left + LinComb.term(basis, b, c)
                        if b.size == 0:
                            eps_right = eps_right + LinComb.term(basis, a, c)
                    ok = ok and {k2: v for k2, v in left.items() if v} == {
                        k2: v for k2, v in right.items() if v
                    }
                    ok = ok and eps_left == elem and eps_right == elem

        # bialgebra compatibility, both sides
        for i in range(1, max_n):
            for j in range(1, max_n - i + 1):
                for a in keys[i]:
                    for b in keys[j]:
                        ea, eb = hopf.phi_elem(a), hopf.phi_elem(b)
                        ok = ok and hopf.phi_coproduct(
                            hopf.phi_product(ea, eb)
                        ) == hopf.tensor_multiply(
                            hopf.phi_coproduct(ea),
                            hopf.phi_coproduct(eb),
                            lambda x, y: hopf.phi_product(hopf.phi_elem(x), hopf.phi_elem(y)),
                        )
                        pa, pb = hopf.psi_elem(a), hopf.psi_elem(b)
                        ok = ok and hopf.psi_coproduct(
                            hopf.psi_product(pa, pb)
                        ) == hopf.tensor_multiply(
                            hopf.psi_coproduct(pa),
                            hopf.psi_coproduct(pb),
                            lambda x, y: hopf.psi_product(hopf.psi_elem(x), hopf.psi_elem(y)),
                        )

        # antipode axiom
        for n in range(max_n + 1):
            for key in keys[n]:
                cop = hopf.phi_coproduct(hopf.phi_elem(key))
                total = LinComb.zero(hopf.PHI)
                for (l, r), c in cop.items():
                    total = total + hopf.phi_product(
                        hopf.antipode(hopf.phi_elem(l)), hopf.phi_elem(r)
                    ) * c
                expect = hopf.one(seq=seq) if n == 0 else LinComb.zero(hopf.PHI)
                ok = ok and total == expect

        # duality adjointness <xy, z> = <x (x) y, Delta z>
        for n in range(2, max_n + 1):
            cops = {z: hopf.phi_coproduct(hopf.phi_elem(z)) for z in keys[n]}
            for i in range(1, n):
                j = n - i
                for a in keys[i]:
                    for b in keys[j]:
                        prod = hopf.psi_product(hopf.psi_elem(a), hopf.psi_elem(b))
                        for z in keys[n]:
                            ok = ok and prod.coeff(z) == cops[z].coeff((a, b))
    report(ok, "criterion 4: Hopf axioms exhaustive, degree <= 5, four sequences")


def test_criterion_05_word_bell_polynomials():
    b42 = bell.word_partial_bell(4, 2)
    keys = [
        [(1, 3, 4), (2,)],
        [(1, 2, 3), (4,)],
        [(1, 2, 4), (3,)],
        [(1, 2), (3, 4)],
        [(1, 3), (2, 4)],
        [(1, 4), (2, 3)],
        [(1,), (2, 3, 4)],
    ]
    ok = b42 == LinComb("Phi", {SetPartition(b): 1 for b in keys})
    for n in range(7):
        # the served enumeration against set_partitions and against the ladder recursion
        ladder = bell.word_bell_tpoly(n)
        ok = ok and bell.word_complete_bell(n) == LinComb(
            "Phi", {p: 1 for p in set_partitions(n)}
        )
        ok = ok and bell.word_complete_bell(n) == sum(ladder, LinComb.zero("Phi"))
        for k in range(n + 1):
            want = LinComb("Phi", {p: 1 for p in set_partitions(n) if p.part_count == k})
            ok = ok and bell.word_partial_bell(n, k) == want
            ok = ok and bell.word_partial_bell(n, k) == ladder[k]
    report(ok, "criterion 5: word Bell polynomials enumerate partitions, n <= 6")


def test_criterion_06_ladder_operator_identity():
    ok = True
    for n in range(6):
        for p in set_partitions(n):
            e = hopf.phi_elem(p)
            ok = ok and bell.deriv(e) == bell.deriv_via_monomial(e)
    report(ok, "criterion 6: ladder operator equals the monomial-basis route, n <= 5")


def test_criterion_07_realization_homomorphism():
    max_n = 5
    ok = True
    seq = IDEMPOTENT
    offset = 100  # second copy of each alphabet, for the coproduct check

    # product intertwining (concatenation) for colored keys
    for i in range(1, max_n):
        for j in range(1, max_n - i + 1):
            L = i + j
            for a in colored_partitions(seq, i):
                for b in colored_partitions(seq, j):
                    lhs = realization.shuffle_composite(
                        [tuple(range(1, i + 1)), tuple(range(i + 1, i + j + 1))],
                        [realization.expand_phi(a, L), realization.expand_phi(b, L)],
                    )
                    ok = ok and lhs == realization.expand_phi(a.shifted_union(b), L)

    # coproduct intertwining: expanding over doubled alphabets splits the
    # parts into the two copies exactly as the coproduct does
    for n in range(max_n + 1):
        L = max(n, 1)
        for key in colored_partitions(seq, n):
            doubled: dict = {}
            choices = []
            blocks = []
            for block, color in key.parts:
                blocks.append(block)
                choices.append(
                    realization.letters(color, L)
                    + realization.letters(color + offset, L)
                )
            for assignment in _assignments(choices):
                word = [None] * n
                for block, letter in zip(blocks, assignment):
                    for pos in block:
                        word[pos - 1] = letter
                first = tuple(
                    pos for pos in range(1, n + 1) if word[pos - 1][0] <= offset
                )
                second = tuple(pos for pos in range(1, n + 1) if pos not in first)
                left_word = tuple(word[pos - 1] for pos in first)
                right_word = tuple(
                    (word[pos - 1][0] - offset, word[pos - 1][1]) for pos in second
                )
                pair = (left_word, right_word)
                doubled[pair] = doubled.get(pair, 0) + 1
            want: dict = {}
            for (l, r), c in hopf.phi_coproduct(hopf.phi_elem(key)).items():
                for wl, cl in realization.expand_phi(l, L).items():
                    for wr, cr in realization.expand_phi(r, L).items():
                        pair = (wl, wr)
                        want[pair] = want.get(pair, 0) + c * cl * cr
            ok = ok and doubled == want

    # shuffle realization of the dual product (uncolored)
    for i in range(1, max_n):
        for j in range(1, max_n - i + 1):
            L = i + j
            for p1 in set_partitions(i):
                for p2 in set_partitions(j):
                    lhs = realization.shuffle(
                        realization.expand_psi(p1, L), realization.expand_psi(p2, L)
                    )
                    prod = hopf.psi_product(hopf.psi_elem(p1), hopf.psi_elem(p2))
                    rhs = realization.word_zero()
                    for key, c in prod.items():
                        rhs = rhs + realization.expand_psi(key, L) * c
                    ok = ok and lhs == rhs
    report(ok, "criterion 7: realization homomorphism and shuffle duality, degree <= 5")


def _assignments(choices):
    if not choices:
        yield ()
        return
    for first in choices[0]:
        for rest in _assignments(choices[1:]):
            yield (first,) + rest


def test_criterion_08_word_identities():
    rep = bell.identity_suite("all", max_n=5, max_k=3)
    ok = bool(rep) and all(item["status"] == "pass" for item in rep)
    report(ok, f"criterion 8: S-form/binomiality/convolution/composition ({len(rep)} checks)")


def test_criterion_09_noncommutative_bell():
    nw = munthekaas.nc_word
    ok = munthekaas.mb_tpoly(1)[1] == nw(1)
    mb2 = munthekaas.mb_tpoly(2)
    ok = ok and mb2[2] == nw(1, 1) and mb2[1] == nw(2)
    mb3 = munthekaas.mb_tpoly(3)
    ok = ok and mb3[3] == nw(1, 1, 1)
    ok = ok and mb3[2] == nw(2, 1) * 2 + nw(1, 2)
    ok = ok and mb3[1] == nw(3)
    mb4 = munthekaas.mb_tpoly(4)
    ok = ok and mb4[4] == nw(1, 1, 1, 1)
    ok = ok and mb4[3] == nw(2, 1, 1) * 3 + nw(1, 2, 1) * 2 + nw(1, 1, 2)
    ok = ok and mb4[2] == nw(3, 1) * 3 + nw(2, 2) * 3 + nw(1, 3)
    ok = ok and mb4[1] == nw(4)
    for n in range(7):
        for k in range(n + 1):
            ok = ok and munthekaas.xi(bell.word_partial_bell(n, k)) == munthekaas.mb_partial(n, k)
    for n in range(1, 7):
        by_comp = {}
        for p in set_partitions(n):
            comp = p.block_sizes()
            by_comp[comp] = by_comp.get(comp, 0) + 1
        for comp, count in by_comp.items():
            ok = ok and munthekaas.ebrahimi_coefficient(n, len(comp), comp) == count
    report(ok, "criterion 9: MB1-MB4 verbatim, block-size morphism, coefficients, n <= 6")


def test_criterion_10_zinbiel_triangular_hessenberg():
    ok = True
    elems = [hopf.phi_elem(p) for n in (1, 2) for p in set_partitions(n)]
    zl, zr = munthekaas.zinbiel_left, munthekaas.zinbiel_right
    for u in elems:
        for v in elems:
            ok = ok and zl(u, v) == zr(v, u)
            for w in elems:
                total = sum(k.size for e in (u, v, w) for k in e.keys())
                if total > 4:
                    continue
                ok = ok and zl(zl(u, v), w) == zl(u, zl(v, w)) + zl(u, zr(v, w))
                ok = ok and zl(zr(u, v), w) == zr(u, zl(v, w))
                ok = ok and zr(u, zr(v, w)) == zr(zl(u, v), w) + zr(zr(u, v), w)
    for n in range(1, 7):
        poly = munthekaas.p_triangular(munthekaas.complete_phi_matrix(n), n)
        for k in range(1, n + 1):
            ok = ok and poly[k] == bell.word_partial_bell(n, k)
        ok = ok and munthekaas.hessenberg_expansion(n) == sum(munthekaas.mb_tpoly(n), LinComb.zero(munthekaas.NC))
    report(ok, "criterion 10: Zinbiel axioms, triangular grading, Hessenberg, n <= 6")


def test_criterion_11_specialization_diagram():
    ok = True
    rng = random.Random(0)
    for seq in NAMED:
        for n in range(7):
            got = bell.gamma_beta(bell.alpha(bell.h_from_c(n)), seq)
            want = bell.eval_complete_bell(seq, n) / math.factorial(n)
            ok = ok and got == want
            materialized = bell.gamma(bell.beta(bell.alpha(bell.h_from_c(n)), seq))
            ok = ok and materialized == want
    for _ in range(2):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(7)]
        for n in range(7):
            got = bell.gamma_beta(bell.alpha(bell.h_from_c(n)), a)
            want = bell.eval_complete_bell(a, n) / math.factorial(n)
            ok = ok and got == want
    for seq in NAMED:
        pools = {m: colored_partitions(seq, m) for m in range(1, 5)}
        for i in range(1, 5):
            for j in range(1, 5 - i + 1):
                for a in pools[i]:
                    for b in pools[j]:
                        prod = hopf.psi_product(hopf.psi_elem(a), hopf.psi_elem(b))
                        ok = ok and bell.gamma(prod) == bell.gamma(
                            hopf.psi_elem(a)
                        ) * bell.gamma(hopf.psi_elem(b))
    report(ok, "criterion 11: specialization diagram and multiplicativity, n <= 6")


def test_criterion_12_appendix_suite():
    rep = verify.appendix_suite()
    ok = len(rep) == 9 and all(item["status"] == "pass" for item in rep)
    report(ok, "criterion 12: appendix identities (i)-(ix) at stated ranges")


def test_criterion_13_type_counts():
    ok = True
    for seq in NAMED:
        for n in range(7):
            types = {p.type_signature() for p in colored_partitions(seq, n)}
            ok = ok and count_by_type(seq, n) == len(types)
    report(ok, "criterion 13: type-series coefficients match classification, n <= 6")
