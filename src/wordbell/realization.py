"""Polynomial realization inside the free associative algebra.

The ambient space is the free algebra on a disjoint family of truncated
alphabets A_1, A_2, ...  A word polynomial is a LinComb over words (tuples
of letters) with basis tag "Word".  The shuffle kernel, ``complete_s``,
``expand_s_on`` and ``series`` take any hashable letters.  The public
expansions (``letters``, ``expand_phi`` and the rest, which ``realize``
prints) name a letter by the pair (alphabet index, letter index), and the
uncolored realization lives entirely in alphabet 1; the word-identity suite
of ``bell``, whose words are never printed, names its letters by ints.

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

The shuffle kernel: ``_shuffle_acc`` takes the operands' own (word,
coefficient) items and groups each operand's words by (length,
coefficient).  For each pair of groups its counting loop,
``_count_shuffles``, runs one pass of C iterators over all the word pairs:
u + v through ``combinatorics._interleave_gather(n, m)``, one cached
itemgetter that returns all C(n+m, n) shuffles end to end, cut back into
words and counted by ``Counter.update``.  It is the package's one
interleaving kernel: ``combinatorics.interleave_keys`` shuffles the
growth strings of keys through it, so the dual product of keys and its
word realization read one table.  Words whose product coefficient is 1
count straight into the sum; the others are added in once at the end by
``_merge_scaled``, one ``dict.update`` per coefficient, which filters out
the zero sums and stores integral ones as int.  Summed over a list of pairs,
it is the word ring's dot for ``series``; ``shuffle`` is its one-pair sum.

The shuffle algebra is graded by content, the multiset of a word's letters
(Reutenauer, *Free Lie Algebras*, 1993): every word of u shuffle v has the
letters of uv.  So a sum of shuffles splits into content components, the
component of content C summing x_a shuffle y_b over the content parts x_a,
y_b of the operands with a + b = C, and it is zero iff every component is.
``shuffle_sums_agree`` tests lhs - rhs that way, exactly: it groups each
operand by content and then by (length, coefficient), negating the rhs
coefficients, buckets the group pairs by merged content, and runs the
counting loop on one bucket at a time.  A component is zero as it stands
when the counts of every coefficient c (c = 1 too) equal those of -c as
dicts; else it is merged, and the first non-zero merge stops the test.
Beyond the operands it holds their groupings (lists of the operands' own
words) and one component's counts, never either sum whole.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, permutations, product, repeat, starmap
from operator import add, itemgetter, mul, neg

from . import series
from .combinatorics import (
    ColoredSetPartition,
    CyclePermutation,
    SetPartition,
    _interleave_gather,
    refinements,
    standardize_word,
)
from .lincomb import BasisError, LinComb, _integral

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


def _blockwise_expand(key, assignments) -> LinComb:
    # assignments: letter tuples, one letter per block, gathered through the growth string
    code = key.growth_string()
    out: dict = {}
    for assignment in assignments:
        w = tuple(map(assignment.__getitem__, code))
        out[w] = out.get(w, 0) + 1
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
    return _blockwise_expand(part, product(*choices))


def expand_monomial(pi: SetPartition, truncation: int) -> LinComb:
    """Word expansion of a monomial key at the given truncation: distinct
    blocks take distinct letters of alphabet 1."""
    return _blockwise_expand(pi, permutations(letters(1, truncation), pi.part_count))


def expand_psi(pi: SetPartition, truncation: int) -> LinComb:
    """Psi realization: pi! times the Phi expansion."""
    return expand_phi(pi, truncation) * pi.part_factorial()


def expand_s_on(pi: SetPartition, alphabet: list) -> LinComb:
    """S_pi realization over the given letters: the sum of q! Phi_q over the
    refinements q of pi."""
    return LinComb(WORD, (
        (w, c * q.part_factorial())
        for q in refinements(pi)
        for w, c in _blockwise_expand(q, product(alphabet, repeat=q.part_count)).items()
    ))


_COMPLETE_SERIES: dict[tuple[int, tuple, int], LinComb] = {}


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


def _by_length_and_coeff(x: LinComb) -> dict:
    groups: dict = {}
    for w, c in x.items():
        groups.setdefault((len(w), c), []).append(w)
    return groups


def _by_content(x: LinComb, sign: int) -> dict:
    """The words of x grouped by content (the sorted tuple of their letters),
    then by (length, sign * coefficient)."""
    contents: dict = {}
    for w, c in x.items():
        contents.setdefault(tuple(sorted(w)), {}).setdefault((len(w), sign * c), []).append(w)
    return contents


def _count_shuffles(acc: Counter, scaled: dict, x_groups: dict, y_groups: dict) -> None:
    """The kernel's counting loop over every pair of (length, coefficient)
    groups: shuffles with product coefficient 1 count into ``acc``, the
    others into ``scaled[c]``."""
    y_groups = y_groups.items()
    for (n, cu), us in x_groups.items():
        for (m, cv), vs in y_groups:
            c = cu * cv
            words = starmap(add, product(us, vs))
            if n and m:
                flat = chain.from_iterable(map(_interleave_gather(n, m), words))
                words = zip(*[flat] * (n + m))
            (acc if c == 1 else scaled.setdefault(c, Counter())).update(words)


def _merge_scaled(acc: Counter, scaled: dict) -> dict:
    """The kernel's final merge: ``acc`` plus c times ``scaled[c]`` for every
    c as a new dict, zero-free, with integral sums stored as int."""
    for c, counts in scaled.items():
        dict.update(acc, zip(counts, map(add, map(acc.get, counts, repeat(0)), map(mul, counts.values(), repeat(c)))))
    out = dict(filter(itemgetter(1), acc.items()))
    if any(type(c) is not int for c in scaled):
        out = {w: _integral(total) for w, total in out.items()}
    return out


def _shuffle_acc(pairs) -> dict:
    """The shuffle kernel of the module docstring: the sum of x shuffle y
    over the (x, y) pairs of word polynomials, zero-free."""
    acc, scaled = Counter(), {}
    for x, y in pairs:
        _count_shuffles(acc, scaled, _by_length_and_coeff(x), _by_length_and_coeff(y))
    return _merge_scaled(acc, scaled)


def shuffle_sums_agree(lhs_pairs, rhs_pairs) -> bool:
    """Whether the sum of x shuffle y over ``lhs_pairs`` equals that over
    ``rhs_pairs``, tested one letter-content component of lhs - rhs at a time
    (module docstring), so that neither sum is ever built whole."""
    buckets: dict = {}
    for sign, pairs in ((1, lhs_pairs), (-1, rhs_pairs)):
        for x, y in pairs:
            y_parts = _by_content(y, 1).items()
            for cu, x_groups in _by_content(x, sign).items():
                for cv, y_groups in y_parts:
                    buckets.setdefault(tuple(sorted(cu + cv)), []).append((x_groups, y_groups))
    for group_pairs in buckets.values():
        acc, scaled = Counter(), {}
        for x_groups, y_groups in group_pairs:
            _count_shuffles(acc, scaled, x_groups, y_groups)
        classes = {**scaled, 1: acc}
        if all(map(dict.__eq__, classes.values(), map(classes.get, map(neg, classes), repeat({})))):
            continue  # c and -c have equal counts for every c: zero as it stands
        if _merge_scaled(acc, scaled):
            return False
    return True


def shuffle_sum(pairs) -> LinComb:
    """The sum of x shuffle y over the (x, y) pairs, the word ring's dot for
    ``series``: the kernel's own plain dict, not a Counter, whose ``__eq__``
    loops in Python."""
    return LinComb._raw(WORD, _shuffle_acc(pairs))


def shuffle(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear shuffle product of word polynomials."""
    if x.basis != WORD or y.basis != WORD:
        raise BasisError("shuffle is defined on word polynomials")
    return shuffle_sum([(x, y)])


def shuffle_scatter(composition, words) -> Word | None:
    """Scatter word p into the positions of block p of a set composition.

    Returns None (the zero of the operator) when some word length does not
    match its block size.  The j-th letter of word p lands at the j-th
    smallest position of block p.  Raises ValueError unless the blocks are
    disjoint and cover {1, ..., n}; an entry outside 1..n is refused before
    any letter is placed.
    """
    blocks = [tuple(sorted(b)) for b in composition]
    if len(blocks) != len(words):
        raise ValueError("need exactly one word per block")
    n = sum(len(b) for b in blocks)
    if not all(1 <= pos <= n for b in blocks for pos in b):
        raise ValueError(f"composition entries must lie in 1..{n}")
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
        if p and word_degree(p) != len(b):
            raise ValueError(f"family entry for degree {len(b)} is not homogeneous")
        polys.append(p)
    return shuffle_composite(pi.blocks, polys)


# ---------------------------------------------------------------------------
# series of word polynomials (shuffle powers)


def series_shuffle_power(a: list[LinComb], k: int, order: int) -> list[LinComb]:
    """The k-th shuffle power of a word series up to t^order."""
    return series.power(a, k, order, word_one(), shuffle_sum)


def shuffle_bell_series(generators: list, k: int, order: int) -> list[LinComb]:
    """Coefficients of (sum_i F_i t^i)^(shuffle k) / k! up to t^order, the
    shuffle Bell polynomials B_{n,k}(F) for n <= order (zero for k < 0), by
    ``series.divided_power`` over the shuffle product.

    ``generators`` is the list [_, F_1, F_2, ...] of word polynomials; entry
    0 is ignored and a shorter list is padded with zeros."""
    base = series.pad([word_zero(), *generators[1:]], order, word_zero())
    return series.divided_power(base, k, order, word_one(), shuffle_sum)


# ---------------------------------------------------------------------------
# the cycle-support specialization


def cycle_word(sigma: CyclePermutation) -> Word:
    """The word w[sigma] over the letters b_i = (1, i).

    Each cycle, written minimum first and standardized, contributes the word
    b_{std[1]} ... b_{std[l]} scattered into its sorted support.
    """
    words = [tuple((1, i) for i in standardize_word(cyc)) for cyc in sigma.cycles]
    scattered = shuffle_scatter(sigma.supports(), words)
    assert scattered is not None
    return scattered


def cycle_specialization(sigma: CyclePermutation) -> LinComb:
    return LinComb.term(WORD, cycle_word(sigma))


def cycle_bell(n: int, k: int) -> LinComb:
    """Word Bell polynomial specialized to cycle words: the sum of w[sigma]
    over permutations of size n with exactly k cycles.

    It is the shuffle Bell polynomial B_{n,k} of the cycle complete family
    (:func:`shuffle_bell_series`): a permutation is a set of cycles, and the
    cycle word of each one scatters into its support."""
    top = n - k + 1 if k > 0 else 0  # only m <= n - k + 1 can reach degree n
    family = [None] + [cycle_complete_family(m) for m in range(1, top + 1)]
    return shuffle_bell_series(family, k, n)[n]


def cycle_complete_family(m: int) -> LinComb:
    """The specialized complete function: all words b_1 b_{s(2)} ... b_{s(m)}
    with s a permutation of {2..m} prefixed by 1."""
    out: dict = {}
    for rest in permutations(range(2, m + 1)):
        w = tuple((1, i) for i in (1,) + rest)
        out[w] = 1
    return LinComb._raw(WORD, out)
