"""Polynomial realization inside the free associative algebra.

Letters are pairs (alphabet index, letter index): the ambient space is the
free algebra on a disjoint family of truncated alphabets A_1, A_2, ...  A
word polynomial is a LinComb over words (tuples of letters) with basis tag
"Word".  The uncolored realization lives entirely in alphabet 1.

Reading of the defining word sum for a colored key: positions in one block
all carry a single letter from the alphabet named by the block's color, and
distinct blocks choose letters independently — so two blocks drawn from the
same alphabet may well pick equal letters.  (Only the within-block equality
and the block-to-alphabet assignment are constrained.)

Truncation soundness: keeping only the first L letters of an alphabet is a
morphism of the shuffle algebra, but it loses every word that uses a later
letter, so on its own it can hide a difference.  It is faithful for word
polynomials that are symmetric in the letters of each alphabet: such a
polynomial is determined by its words whose letters are numbered in order of
first use, so two of them agree iff they agree when each alphabet keeps as
many letters as the positions it fills in a word.

The shuffle kernel: ``_cleared`` turns operands (a whole series at once)
into integer numerators over one common denominator.  ``_shuffle_acc``
groups each operand's words by (length, numerator) and, for each pair of
groups, runs one pass of C iterators over all the word pairs: u + v through
``combinatorics._interleave_gather(n, m)``, one cached itemgetter that
returns all C(n+m, n) shuffles end to end, cut back into words and counted
by ``Counter.update``.  It is the package's one interleaving kernel:
``combinatorics.interleave_keys`` shuffles the block-number words of keys
through it, so the dual product of keys and its word realization read one
table.  Words whose product coefficient is 1 count straight into the sum;
the others are added in once at the end, where a word whose sum reaches 0
is deleted.  ``shuffle`` and ``series_shuffle_mul`` divide the zero-free sum
by the common denominator with ``LinComb`` division, which keeps integral
coefficients as int.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, permutations, product, starmap
from operator import add

from . import series
from .combinatorics import (
    ColoredSetPartition,
    CyclePermutation,
    SetPartition,
    _interleave_gather,
    refinements,
)
from .lincomb import BasisError, LinComb

WORD = "Word"

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def letters(alphabet: int, count: int) -> list[Letter]:
    """The first ``count`` letters of alphabet ``alphabet``."""
    return [(alphabet, i) for i in range(1, count + 1)]


def word_one() -> LinComb:
    return LinComb.term(WORD, ())


def word_zero() -> LinComb:
    return LinComb.zero(WORD)


def word_degree(x: LinComb) -> int | None:
    """Common word length of all terms, or None if inhomogeneous or zero."""
    degs = {len(w) for w in x.keys()}
    if len(degs) != 1:
        return None
    return degs.pop()


# ---------------------------------------------------------------------------
# expansions of the distinguished bases


def _blockwise_expand(parts, assignments) -> LinComb:
    # parts: sequence of blocks; assignments: letter tuples, one letter per part.
    n = sum(len(b) for b in parts)
    out: dict = {}
    for assignment in assignments:
        w = [None] * n
        for block, letter in zip(parts, assignment):
            for pos in block:
                w[pos - 1] = letter
        key = tuple(w)
        out[key] = out.get(key, 0) + 1
    return LinComb._raw(WORD, out)


def expand_phi(part, truncation: int) -> LinComb:
    """Word expansion of a Phi basis key at the given truncation.

    For a colored key the block colored i draws its letter from alphabet A_i;
    plain set partitions embed with every block in alphabet 1.
    """
    if isinstance(part, ColoredSetPartition):
        choices = [letters(c, truncation) for _, c in part.parts]
    elif isinstance(part, SetPartition):
        choices = [letters(1, truncation) for _ in part.blocks]
    else:
        raise TypeError(f"cannot expand {type(part).__name__}")
    return _blockwise_expand(part.blocks, product(*choices))


def expand_monomial(pi: SetPartition, truncation: int) -> LinComb:
    """Word expansion of a monomial key at the given truncation: distinct
    blocks take distinct letters of alphabet 1."""
    return _blockwise_expand(pi.blocks, permutations(letters(1, truncation), pi.part_count))


def expand_psi(pi: SetPartition, truncation: int) -> LinComb:
    """Psi realization: pi! times the Phi expansion."""
    return expand_phi(pi, truncation) * pi.part_factorial()


def expand_s_on(pi: SetPartition, alphabet: list[Letter]) -> LinComb:
    """S_pi realization: the sum of q! Phi_q over the refinements q of pi."""
    return LinComb(WORD, (
        (w, c * q.part_factorial())
        for q in refinements(pi)
        for w, c in _blockwise_expand(q.blocks, product(alphabet, repeat=q.part_count)).items()
    ))


_COMPLETE_SERIES: dict[tuple[int, tuple[Letter, ...], int], LinComb] = {}


def complete_s(n: int, alphabet, k: int = 1) -> LinComb:
    """S_{{1..n}}(kA) over the given distinct letters, from its closed form
    (k = 1 gives the word complete function S_{{1..n}}(A)).

    Distinct letters shuffle freely and one letter's powers shuffle as
    divided powers, so sigma_t(a) = exp(ta / (1 - ta)) and sigma_t(kA) =
    sigma_t(A)^k give each word w the coefficient prod_a lambda_k(|w|_a),
    with lambda_k(m) = sum_j Lah(m, j) k^j (1, 1, 3, 13, 73, ... at k = 1).
    ``expand_s_on`` is the refinement-sum oracle.
    """
    alphabet = tuple(alphabet)
    key = (n, alphabet, k)
    if key in _COMPLETE_SERIES:
        return _COMPLETE_SERIES[key]
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("complete_s needs distinct letters")
    if k < 0:
        raise ValueError(f"complete_s needs k >= 0, got {k}")
    lah = lambda m, j: math.comb(m - 1, j - 1) * math.factorial(m) // math.factorial(j)
    weight = [1] + [sum(lah(m, j) * k**j for j in range(1, m + 1)) for m in range(1, n + 1)]
    out = {}
    for w in product(alphabet, repeat=n):
        c = math.prod(weight[w.count(a)] for a in alphabet)
        if c:
            out[w] = c
    _COMPLETE_SERIES[key] = poly = LinComb._raw(WORD, out)
    return poly


# ---------------------------------------------------------------------------
# shuffle machinery


def _cleared(polys) -> tuple[list[list], int]:
    """The polynomials as (word, integer numerator) lists over one common
    denominator, which is returned with them."""
    den = math.lcm(*{c.denominator for p in polys for c in p._terms.values()})
    return [
        [(w, c.numerator * (den // c.denominator)) for w, c in p.items()]
        for p in polys
    ], den


def _by_length_and_coeff(terms) -> dict:
    groups: dict = {}
    for w, c in terms:
        groups.setdefault((len(w), c), []).append(w)
    return groups


def _shuffle_acc(pairs) -> Counter:
    """The shuffle kernel: the sum of xs shuffle ys over the pairs of integer
    (word, coeff) lists, zero-free.

    The shuffles of each pair of (length, coefficient) groups are counted in
    one Counter.update: straight into the sum when the product coefficient c
    is 1, else into one Counter per c.  So the sum holds only positive counts
    until those are added in, as c times the count, once at the end; a word
    whose sum reaches 0 there is deleted."""
    acc = Counter()
    scaled: dict[int, Counter] = {}
    for xs, ys in pairs:
        y_groups = _by_length_and_coeff(ys).items()
        for (n, cu), us in _by_length_and_coeff(xs).items():
            for (m, cv), vs in y_groups:
                c = cu * cv
                words = starmap(add, product(us, vs))
                if n and m:
                    flat = chain.from_iterable(map(_interleave_gather(n, m), words))
                    words = zip(*[flat] * (n + m))
                (acc if c == 1 else scaled.setdefault(c, Counter())).update(words)
    get = acc.get  # not acc[w]: a missing key would call Counter.__missing__
    for c, counts in scaled.items():
        for w, count in counts.items():
            total = get(w, 0) + c * count
            if total:
                acc[w] = total
            else:
                del acc[w]
    return acc


def shuffle(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear shuffle product of word polynomials."""
    if x.basis != WORD or y.basis != WORD:
        raise BasisError("shuffle is defined on word polynomials")
    (xs,), dx = _cleared([x])
    (ys,), dy = _cleared([y])
    return LinComb._raw(WORD, _shuffle_acc([(xs, ys)])) / (dx * dy)


def shuffle_scatter(composition, words) -> Word | None:
    """Scatter word p into the positions of block p of a set composition.

    Returns None (the zero of the operator) when some word length does not
    match its block size.  The j-th letter of word p lands at the j-th
    smallest position of block p.
    """
    blocks = [tuple(sorted(b)) for b in composition]
    if len(blocks) != len(words):
        raise ValueError("need exactly one word per block")
    n = sum(len(b) for b in blocks)
    w = [None] * n
    for block, word in zip(blocks, words):
        if len(block) != len(word):
            return None
        for pos, letter in zip(block, word):
            w[pos - 1] = letter
    if any(l is None for l in w):
        raise ValueError("composition blocks must be disjoint and cover {1..n}")
    return tuple(w)


def shuffle_composite(composition, polys) -> LinComb:
    """Multilinear extension of the scatter operator to word polynomials."""
    terms = (
        (shuffle_scatter(composition, [w for w, _ in combo]), math.prod(c for _, c in combo))
        for combo in product(*[list(p.items()) for p in polys])
    )
    return LinComb(WORD, ((w, c) for w, c in terms if w is not None))


def specialize_complete(pi: SetPartition, family) -> LinComb:
    """S_pi in the virtual alphabet defined by the homogeneous family.

    ``family`` maps each degree m to a homogeneous word polynomial of degree
    m (list indexed by degree, or mapping); the single-block key of size n
    specializes to family[n] and general keys scatter blockwise.
    """
    polys = []
    for b in pi.blocks:
        p = family[len(b)]
        if word_degree(p) not in (len(b), None) or (word_degree(p) is None and p):
            raise ValueError(f"family entry for degree {len(b)} is not homogeneous")
        polys.append(p)
    if not pi.blocks:
        return word_one()
    return shuffle_composite(pi.blocks, polys)


# ---------------------------------------------------------------------------
# series of word polynomials (shuffle powers)


def series_shuffle_mul(a: list[LinComb], b: list[LinComb], order: int) -> list[LinComb]:
    xs, dx = _cleared(a[: order + 1])
    ys, dy = _cleared(b[: order + 1])
    pairs = lambda d: ((x, ys[d - i]) for i, x in enumerate(xs) if 0 <= d - i < len(ys))
    return [LinComb._raw(WORD, _shuffle_acc(pairs(d))) / (dx * dy) for d in range(order + 1)]


def series_shuffle_power(a: list[LinComb], k: int, order: int) -> list[LinComb]:
    """The k-th shuffle power of a word series up to t^order."""
    return series.power(a, k, order, word_one(), series_shuffle_mul)


# ---------------------------------------------------------------------------
# the cycle-support specialization


def cycle_word(sigma: CyclePermutation) -> Word:
    """The word w[sigma] over the letters b_i = (1, i).

    Each cycle, written minimum first and standardized, contributes the word
    b_{std[1]} ... b_{std[l]} scattered into its sorted support.
    """
    words = []
    for cyc in sigma.cycles:
        support = sorted(cyc)
        pos = {x: i + 1 for i, x in enumerate(support)}
        words.append(tuple((1, pos[x]) for x in cyc))
    scattered = shuffle_scatter(sigma.supports(), words)
    assert scattered is not None
    return scattered


def cycle_specialization(sigma: CyclePermutation) -> LinComb:
    return LinComb.term(WORD, cycle_word(sigma))


def cycle_bell(n: int, k: int) -> LinComb:
    """Word Bell polynomial specialized to cycle words: the sum of w[sigma]
    over permutations of size n with exactly k cycles.

    It is [t^n] of the k-th shuffle power of sum_m cycle_complete_family(m) t^m,
    over k!: a permutation is a set of cycles, and the cycle word of each one
    scatters into its support.  Only m <= n - k + 1 can reach degree n."""
    if k <= 0:
        return word_one() if n == k == 0 else word_zero()
    family = [word_zero()] + [cycle_complete_family(m) for m in range(1, n - k + 2)]
    return series_shuffle_power(family, k, n)[n] / math.factorial(k)


def cycle_complete_family(m: int) -> LinComb:
    """The specialized complete function: all words b_1 b_{s(2)} ... b_{s(m)}
    with s a permutation of {2..m} prefixed by 1."""
    out: dict = {}
    for rest in permutations(range(2, m + 1)):
        w = tuple((1, i) for i in (1,) + rest)
        out[w] = 1
    return LinComb._raw(WORD, out)
