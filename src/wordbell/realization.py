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

Truncation soundness: two homogeneous degree-n word polynomials over the
infinite alphabets agree iff they agree at truncation L = n, since a degree-n
monomial involves at most n distinct letters of each alphabet.

The shuffle kernel: ``_interleave_patterns(n, m)`` caches one itemgetter per
interleaving, which maps u + v to the shuffled word in C; the gathers are
built from the label splits of ``combinatorics.interleavings``, the one table
every interleaving in the package is read from.  ``_cleared``
turns operands (a whole series at once) into integer numerators over one
common denominator, the kernel adds plain ints, and ``_settled`` drops the
zeros and divides once at the end, keeping integral coefficients as int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from . import series
from .combinatorics import (
    ColoredSetPartition,
    CyclePermutation,
    SetPartition,
    interleavings,
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


def _blockwise_expand(parts, letter_choices) -> LinComb:
    # parts: sequence of blocks; letter_choices: one candidate list per part.
    n = sum(len(b) for b in parts)
    out: dict = {}
    for assignment in product(*letter_choices):
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
        blocks = [b for b, _ in part.parts]
        choices = [letters(c, truncation) for _, c in part.parts]
    elif isinstance(part, SetPartition):
        blocks = list(part.blocks)
        choices = [letters(1, truncation) for _ in part.blocks]
    else:
        raise TypeError(f"cannot expand {type(part).__name__}")
    return _blockwise_expand(blocks, choices)


def expand_phi_on(pi: SetPartition, alphabet: list[Letter]) -> LinComb:
    """Uncolored Phi expansion over an explicit letter list."""
    return _blockwise_expand(list(pi.blocks), [alphabet for _ in pi.blocks])


def expand_monomial(pi: SetPartition, truncation_or_letters) -> LinComb:
    """Word expansion of a monomial key: distinct blocks take distinct letters."""
    alphabet = (
        letters(1, truncation_or_letters)
        if isinstance(truncation_or_letters, int)
        else list(truncation_or_letters)
    )
    k = pi.part_count
    out: dict = {}
    n = pi.size
    for chosen in product(*[alphabet] * k):
        if len(set(chosen)) != k:
            continue
        w = [None] * n
        for block, letter in zip(pi.blocks, chosen):
            for pos in block:
                w[pos - 1] = letter
        key = tuple(w)
        out[key] = out.get(key, 0) + 1
    return LinComb._raw(WORD, out)


def expand_psi(pi: SetPartition, truncation: int) -> LinComb:
    """Psi realization: pi! times the Phi expansion."""
    return expand_phi(pi, truncation) * pi.part_factorial()


def expand_psi_on(pi: SetPartition, alphabet: list[Letter]) -> LinComb:
    return expand_phi_on(pi, alphabet) * pi.part_factorial()


def expand_s_on(pi: SetPartition, alphabet: list[Letter]) -> LinComb:
    """S_pi realization: sum of Psi expansions over all refinements of pi."""
    total = word_zero()
    for q in refinements(pi):
        total = total + expand_psi_on(q, alphabet)
    return total


_COMPLETE_SERIES: dict[tuple[Letter, ...], list[LinComb]] = {}


def complete_s(n: int, alphabet) -> LinComb:
    """S_{{1..n}} over the given letters (the word complete function).

    Grown on demand via the shuffle-exponential recursion
    m S_m = sum_j j (j! Phi_{{1..j}}) shuffle S_{m-j}, which agrees with the
    refinement sum over all set partitions but scales far better.
    """
    key = tuple(alphabet)
    series = _COMPLETE_SERIES.setdefault(key, [word_one()])
    while len(series) <= n:
        m = len(series)
        terms, den = _cleared(series)
        acc: dict = {}
        for j in range(1, m + 1):
            scale = j * math.factorial(j)
            _shuffle_acc(acc, [((letter,) * j, scale) for letter in key], terms[m - j])
        series.append(_settled(acc, den * m))
    return series[n]


# ---------------------------------------------------------------------------
# shuffle machinery


@lru_cache(maxsize=None)
def _interleave_patterns(n: int, m: int) -> tuple:
    # One gather per label split (I, J) of an n-letter word u with an m-letter
    # word v: letter i of u + v goes to label (I + J)[i], so the gather reads
    # the inverse permutation, and applied to u + v it returns the shuffled word.
    # With an empty word the one interleaving is u + v itself.
    if not n or not m:
        return (tuple,)
    return tuple(
        itemgetter(*sorted(range(n + m), key=(I + J).__getitem__))
        for I, J in interleavings(n, m)
    )


def _cleared(polys) -> tuple[list[list], int]:
    """The polynomials as (word, integer numerator) lists over one common
    denominator, which is returned with them."""
    den = math.lcm(*{c.denominator for p in polys for c in p._terms.values()})
    return [
        [(w, c.numerator * (den // c.denominator)) for w, c in p.items()]
        for p in polys
    ], den


def _settled(acc: dict, den: int) -> LinComb:
    """The word polynomial acc / den: zeros dropped, integral values as int."""
    out = {}
    for w, c in acc.items():
        if c:
            q, r = divmod(c, den)
            out[w] = Fraction(c, den) if r else q
    return LinComb._raw(WORD, out)


def _shuffle_acc(acc: dict, xs, ys) -> None:
    """The shuffle kernel: acc += xs shuffle ys on integer (word, coeff) lists."""
    get = acc.get
    for u, cu in xs:
        n = len(u)
        for v, cv in ys:
            c = cu * cv
            uv = u + v
            for gather in _interleave_patterns(n, len(v)):
                w = gather(uv)
                acc[w] = get(w, 0) + c


def shuffle(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear shuffle product of word polynomials."""
    if x.basis != WORD or y.basis != WORD:
        raise BasisError("shuffle is defined on word polynomials")
    (xs,), dx = _cleared([x])
    (ys,), dy = _cleared([y])
    acc: dict = {}
    _shuffle_acc(acc, xs, ys)
    return _settled(acc, dx * dy)


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
# series of word polynomials (for scaled alphabets and shuffle powers)


def series_shuffle_mul(a: list[LinComb], b: list[LinComb], order: int) -> list[LinComb]:
    xs, dx = _cleared(a[: order + 1])
    ys, dy = _cleared(b[: order + 1])
    sums: list[dict] = [{} for _ in range(order + 1)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys[: order + 1 - i]):
            _shuffle_acc(sums[i + j], x, y)
    return [_settled(acc, dx * dy) for acc in sums]


def series_shuffle_power(a: list[LinComb], k: int, order: int) -> list[LinComb]:
    """The k-th shuffle power of a word series up to t^order."""
    return series.power(a, k, order, word_one(), series_shuffle_mul)


def complete_series(alphabet: list[Letter], order: int) -> list[LinComb]:
    """Coefficients of sigma_t over the alphabet: [1, S_1, S_2, ...]."""
    return [complete_s(n, alphabet) for n in range(order + 1)]


def scaled_complete(n: int, k: int, alphabet: list[Letter]) -> LinComb:
    """S_{{1..n}}(k*A), defined through sigma_t(kA) = sigma_t(A)^(shuffle k)."""
    return series_shuffle_power(complete_series(alphabet, n), k, n)[n]


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


def _permutations_with_cycles(n: int, k: int, cycles: tuple = (), m: int = 1):
    """The permutations of {1..n} with exactly k cycles, each once, by the
    insertion rule behind c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k): element m
    opens a new cycle or follows one of the m - 1 smaller elements in its
    cycle.  A branch stops as soon as k cycles are out of its reach."""
    if m > n:
        if len(cycles) == k:
            yield CyclePermutation(cycles)
        return
    if len(cycles) < k:
        yield from _permutations_with_cycles(n, k, cycles + ((m,),), m + 1)
    if len(cycles) + n - m >= k:
        for c, cyc in enumerate(cycles):
            for pos in range(1, len(cyc) + 1):
                grown = cycles[:c] + (cyc[:pos] + (m,) + cyc[pos:],) + cycles[c + 1:]
                yield from _permutations_with_cycles(n, k, grown, m + 1)


def cycle_bell(n: int, k: int) -> LinComb:
    """Word Bell polynomial specialized to cycle words: the sum of w[sigma]
    over permutations of size n with exactly k cycles."""
    out: dict = {}
    for sigma in _permutations_with_cycles(n, k):
        w = cycle_word(sigma)
        out[w] = out.get(w, 0) + 1
    return LinComb._raw(WORD, out)


def cycle_complete_family(m: int) -> LinComb:
    """The specialized complete function: all words b_1 b_{s(2)} ... b_{s(m)}
    with s a permutation of {2..m} prefixed by 1."""
    from itertools import permutations as _perms

    out: dict = {}
    for rest in _perms(range(2, m + 1)):
        w = tuple((1, i) for i in (1,) + rest)
        out[w] = 1
    return LinComb._raw(WORD, out)
