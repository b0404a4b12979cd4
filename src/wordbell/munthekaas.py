"""Noncommutative Bell polynomials on the derivation alphabet.

The free algebra on d_1, d_2, ... carries the derivation that bumps each
letter's index; powers of (t d_1 + derivation) acting on 1 generate the
noncommutative Bell polynomials.  The block-size morphism from word symmetric
functions, the Zinbiel half-shuffles on the dual side, the triangular
polynomial of an upper triangular matrix and the Hessenberg path expansion
all live here.

The two half-shuffles are complementary slices of one interleaving:
``combinatorics.interleave_keys`` yields first the keys that give label 1 to
the left factor, since the leading shuffles of the interleaving kernel start
with the left factor's first letter, and their sum is ``hopf.psi_product``
read on Phi tags.
"""

from __future__ import annotations

import math

from .combinatorics import SetPartition, interleave_keys
from .hopf import PHI
from .lincomb import BasisError, LinComb, _ladder, _lincomb_sum

NC = "NC"

NCWord = tuple[int, ...]


def nc_one() -> LinComb:
    return LinComb.term(NC, ())


def nc_word(*indices: int) -> LinComb:
    if any(i < 1 for i in indices):
        raise ValueError("letter indices start at 1")
    return LinComb.term(NC, tuple(indices))


def nc_mul(x: LinComb, y: LinComb) -> LinComb:
    """Concatenation product of noncommutative polynomials."""
    if x.basis != NC or y.basis != NC:
        raise BasisError("expected noncommutative polynomials")
    return LinComb(NC, ((u + v, cu * cv) for u, cu in x.items() for v, cv in y.items()))


def derive(x: LinComb) -> LinComb:
    """The derivation d_i -> d_{i+1}, extended by the Leibniz rule."""
    if x.basis != NC:
        raise BasisError("expected a noncommutative polynomial")
    return LinComb(NC, (
        (word[:pos] + (word[pos] + 1,) + word[pos + 1:], c)
        for word, c in x.items()
        for pos in range(len(word))
    ))


def mb_tpoly(n: int) -> list[LinComb]:
    """1 . (t d_1 + derivation)^n as its n + 1 coefficients in t."""
    d1 = nc_word(1)
    return _ladder(nc_one(), lambda x: nc_mul(x, d1), derive, n)


def mb_partial(n: int, k: int) -> LinComb:
    """The coefficient of t^k in the degree-n noncommutative Bell polynomial."""
    if not 0 <= k <= n:
        return LinComb.zero(NC)
    return mb_tpoly(n)[k]


def xi(x: LinComb) -> LinComb:
    """The block-size morphism: a partition with blocks ordered by minima maps
    to the word of its block sizes."""
    if x.basis != PHI:
        raise BasisError("the block-size morphism acts on the Phi basis")
    if not all(isinstance(key, SetPartition) for key in x.keys()):
        raise BasisError("the block-size morphism is defined on uncolored keys")
    return LinComb(NC, ((key.block_sizes(), c) for key, c in x.items()))


def ebrahimi_coefficient(n: int, k: int, composition) -> int:
    """Coefficient of d_{j_1} ... d_{j_k} in the partial polynomial.

    Counts the set partitions of {1..n} into blocks of sizes j_1, ..., j_k
    listed in increasing order of minima.
    """
    comp = tuple(int(j) for j in composition)
    if len(comp) != k or any(j < 1 for j in comp) or sum(comp) != n:
        raise ValueError(f"{comp} is not a composition of {n} into {k} parts")
    return mb_partial(n, k).coeff(comp)


# ---------------------------------------------------------------------------
# Zinbiel half-shuffles on the shuffle realization of the dual algebra


def _half_shuffle(x: LinComb, y: LinComb, min_left: bool) -> LinComb:
    if x.basis != PHI or y.basis != PHI:
        raise BasisError("half-shuffles act on the Phi-indexed dual realization")

    def terms():
        for kx, cx in x.items():
            for ky, cy in y.items():
                n, m = kx.size, ky.size
                if n + m == 0:
                    continue  # no label 1 to place: both half-products vanish
                # the kernel places kx at the n-subsets of the positions in
                # combinations order, so the C(n+m-1, n-1) keys with label 1 in kx lead
                first = math.comb(n + m - 1, n - 1) if n else 0
                keys = list(interleave_keys(kx, ky))
                c = cx * cy
                for key in keys[:first] if min_left else keys[first:]:
                    yield key, c

    return LinComb(PHI, terms())


def zinbiel_left(x: LinComb, y: LinComb) -> LinComb:
    """The half-shuffle keeping the smallest label in the left factor."""
    return _half_shuffle(x, y, True)


def zinbiel_right(x: LinComb, y: LinComb) -> LinComb:
    """The half-shuffle sending the smallest label to the right factor."""
    return _half_shuffle(x, y, False)


def p_triangular(entry, n: int) -> list[LinComb]:
    """The triangular polynomial of an upper triangular array of entries, as
    its n + 1 coefficients in t.

    ``entry(i, j)`` returns the (i, j) entry for 1 <= i <= j <= n.  The
    recursion P(A_m; t) = t * sum_k P(A_{k-1}) half-shuffled with a_{k,m}
    starts from the scalar P(A_0) = 1, which acts by plain scaling (so the
    k = 1 term contributes t * a_{1,m}); folds nest on the left, literally.
    At n = 0 that 1 is returned as Phi of the empty partition, the unit of
    the Phi basis and ``bell.word_bell_tpoly(0)``.

    The half-shuffle used by the fold routes the minimum label into the
    newly appended entry: this is the orientation under which the t-grading
    of the complete-function matrix reproduces the partial Bell polynomials
    with all coefficients 1 (the other orientation overcounts the top term).
    """
    if n < 0:
        raise ValueError("the triangular polynomial needs n >= 0")
    zero = LinComb.zero(PHI)
    polys: list[list | None] = [None]  # index m -> P(A_m; t); None is the scalar 1
    for m in range(1, n + 1):
        total = [zero] * m  # the sum over k, degrees 0..m-1; P(A_{k-1}) has k coefficients
        for k in range(1, m + 1):
            a_km = entry(k, m)
            prev = polys[k - 1]
            if prev is None:
                total[0] = total[0] + a_km
            else:
                for i, c in enumerate(prev):
                    total[i] = total[i] + zinbiel_right(c, a_km)
        polys.append([zero] + total)
    result = polys[n]
    return [LinComb.term(PHI, SetPartition())] if result is None else result


def complete_phi_matrix(n: int):
    """Entries a_{ij} = Phi of the one-block partition of size j - i + 1."""

    def entry(i: int, j: int) -> LinComb:
        return LinComb.term(PHI, SetPartition.single_block(j - i + 1))

    return entry


def hessenberg_expansion(n: int) -> LinComb:
    """Path-sum expansion of the Hessenberg array with binomial-weighted
    letters: entry (i, j) is C(n-i, j-i) d_{j-i+1}.

    Equals the full noncommutative Bell polynomial evaluated at t = 1.
    """
    if n < 1:
        raise ValueError("the expansion needs n >= 1")

    def entry(i: int, j: int) -> LinComb:
        return LinComb.term(NC, (j - i + 1,)) * math.comb(n - i, j - i)

    # f[start] expands the chains a_{start, j} f[j+1] ending with a_{., n}.
    f: dict[int, LinComb] = {}
    for start in range(n, 0, -1):
        terms = [entry(start, n)] + [nc_mul(entry(start, j), f[j + 1]) for j in range(start, n)]
        f[start] = _lincomb_sum(NC, terms)
    return f[1]
