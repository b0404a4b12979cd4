"""Bell polynomials: classical, word, colored and shuffle variants.

Four incarnations of the same combinatorics live here:

* classical complete/partial Bell polynomials as exact symbolic polynomials
  in a1, a2, ... and their exact evaluation by triangular recurrences;
* word Bell polynomials in the Phi basis: sums of Phi over set partitions,
  with the ladder operator that adjoins a new largest element to a block as
  their defining recursion;
* their normalized images on the dual (Psi) side for any color sequence,
  sums of Psi over colored set partitions;
* shuffle-power Bell polynomials for arbitrary word polynomial arguments.

The module also hosts the specialization morphisms connecting symmetric
functions to the colored dual algebra (``alpha``, ``beta``, ``gamma``,
``gamma_beta``).  The items that check them live in ``verify.bell_suite``.
The only report code left here is ``report_item`` and the word-identity
``identity_suite`` it serves, because the benchmark (``perfbench/``) calls
``bell.identity_suite`` and reads its series memo
``_mixed_bell_series_cached`` by these names.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import series
from .combinatorics import (
    ColorSequence,
    SetPartition,
    _colorings,
    colored_partitions,
    colored_partitions_k,
    int_partitions,
    set_partitions,
)
from .hopf import (
    PHI,
    PSI,
    monomial_to_phi,
    phi_elem,
    phi_product,
    phi_to_monomial,
    psi_elem,
    psi_product,
)
from .lincomb import BasisError, LinComb, _ladder
from .realization import (
    complete_s,
    expand_s_on,
    series_shuffle_power,
    shuffle,
    shuffle_bell_series,
    shuffle_sum,
    shuffle_sums_agree,
    word_degree,
    word_zero,
)
from .sympoly import SparsePoly

# ---------------------------------------------------------------------------
# classical Bell polynomials (symbolic)


def _exponential_a_series(n: int) -> list[SparsePoly]:
    """[0, a1/1!, a2/2!, ..., an/n!] in the variables a1, a2, ..."""
    return [SparsePoly.zero()] + [
        SparsePoly.var(j) * Fraction(1, math.factorial(j)) for j in range(1, n + 1)
    ]


def partial_bell_poly(n: int, k: int) -> SparsePoly:
    """B_{n,k} = n! [t^n] (sum_j a_j t^j / j!)^k / k!, an exact polynomial in
    the variables a1, a2, ... for n >= 0 (zero for k < 0 and for k > n)."""
    return series.divided_power(_exponential_a_series(n), k, n, SparsePoly.const(1))[n] * math.factorial(n)


def complete_bell_poly(n: int) -> SparsePoly:
    """A_n = n! [t^n] exp(sum_j a_j t^j / j!) = sum_k B_{n,k}, with A_0 = 1."""
    return series.exp(_exponential_a_series(n), n, SparsePoly.const(1))[n] * math.factorial(n)


# ---------------------------------------------------------------------------
# evaluation


def seq_values(a):
    """Normalize a sequence description to a callable m -> Fraction.

    Accepts a ColorSequence, a callable, or an indexable of values for
    a_1, a_2, ... (finite lists are zero-extended).
    """
    if callable(a):
        return lambda m: Fraction(a(m))
    values = [Fraction(v) for v in a]
    return lambda m: values[m - 1] if m <= len(values) else Fraction(0)


def eval_partial_bell_direct(a, n: int, k: int) -> Fraction:
    """B_{n,k}(a) summed over integer partitions: the independent oracle."""
    if k < 0 or k > n:
        return Fraction(0)
    value = seq_values(a)
    total = Fraction(0)
    for lam in int_partitions(n):
        if len(lam) != k:
            continue
        coeff = Fraction(math.factorial(n))
        mult: dict[int, int] = {}
        for part in lam:
            coeff /= math.factorial(part)
            mult[part] = mult.get(part, 0) + 1
        for m in mult.values():
            coeff /= math.factorial(m)
        prod = Fraction(1)
        for part in lam:
            prod *= value(part)
        total += coeff * prod
    return total


def partial_bell_band(a, kmax: int, dmax: int) -> list[list[int | Fraction]]:
    """The band B_{k+d,k}(a), k <= kmax, d <= dmax: row k is B_{k,k}, ..., B_{k+dmax,k}.

    Comtet's triangular recurrence B_{n,k} = sum_i C(n-1, i-1) a_i B_{n-i,k-1}
    reads only a_1, ..., a_{dmax+1}.  It runs on the integers q a, for q the lcm
    of their denominators, and divides row k by q^k at the end, since
    B_{n,k}(q a) = q^k B_{n,k}(a).  Entries are int when integral.
    """
    value = seq_values(a)
    vals = [value(i) for i in range(1, dmax + 2)]
    q = math.lcm(*(v.denominator for v in vals))
    scaled = [v.numerator * (q // v.denominator) for v in vals]
    rows = [[1] + [0] * dmax]
    for k in range(1, kmax + 1):
        prev = rows[-1]
        rows.append([
            sum(math.comb(k + d - 1, j) * scaled[j] * prev[d - j] for j in range(d + 1))
            for d in range(dmax + 1)
        ])
    band = []
    for k, row in enumerate(rows):
        qk = q**k
        band.append([v // qk if v % qk == 0 else Fraction(v, qk) for v in row])
    return band


def eval_partial_bell(a, n: int, k: int) -> Fraction:
    """Exact B_{n,k}(a) as a Fraction, one entry of :func:`partial_bell_band`;
    reads only a_1, ..., a_{n-k+1}."""
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(partial_bell_band(a, k, n - k)[k][n - k])


def complete_bell_column(a, nmax: int) -> list[int | Fraction]:
    """A_0(a), ..., A_nmax(a) by the binomial recurrence
    A_{m+1} = sum_i C(m, i) a_{i+1} A_{m-i}; int entries for an integral
    sequence.  Reads only a_1, ..., a_nmax."""
    value = seq_values(a)
    vals = [v.numerator if v.denominator == 1 else v for v in map(value, range(1, nmax + 1))]
    column = [1]
    for m in range(nmax):
        column.append(sum(math.comb(m, i) * vals[i] * column[m - i] for i in range(m + 1)))
    return column


def eval_complete_bell(a, n: int) -> Fraction:
    """Exact A_n(a) as a Fraction: the last entry of :func:`complete_bell_column`."""
    return Fraction(complete_bell_column(a, n)[n])


def eval_complete_bell_via_gf(a, n: int) -> Fraction:
    """A_n(a) from the exponential generating function (validation route)."""
    value = seq_values(a)
    arg = [Fraction(0)] + [value(i) / math.factorial(i) for i in range(1, n + 1)]
    return series.exp(arg, n)[n] * math.factorial(n)


# ---------------------------------------------------------------------------
# word Bell polynomials in the Phi basis


def deriv(x: LinComb) -> LinComb:
    """The ladder operator: adjoin n+1 to each block in turn; kills scalars."""
    if x.basis != PHI:
        raise BasisError("the ladder operator acts on the Phi basis")
    if not all(isinstance(key, SetPartition) for key in x.keys()):
        raise BasisError("the ladder operator is defined on uncolored keys")
    return LinComb(PHI, (
        (SetPartition._trusted(key.blocks[:i] + (b + (key.size + 1,),) + key.blocks[i + 1:], key.size + 1), c)
        for key, c in x.items()
        for i, b in enumerate(key.blocks)
    ))


def _append_singleton(x: LinComb) -> LinComb:
    return phi_product(x, phi_elem(SetPartition.singletons(1)))


def word_bell_tpoly(n: int) -> list[LinComb]:
    """The t-marked operator power as its n + 1 coefficients: entry k is the
    partial word Bell polynomial with k blocks.

    This is the defining recursion (t x + d)^n 1 with d the ladder operator;
    the served polynomials below enumerate, and this is their check."""
    return _ladder(phi_elem(SetPartition()), _append_singleton, deriv, n)


def word_partial_bell(n: int, k: int) -> LinComb:
    """The partial word Bell polynomial: the sum of Phi_pi over the set
    partitions pi of [n] with k blocks, zero for k outside 0..n.  Entry k of
    :func:`word_bell_tpoly`, built by enumeration."""
    return LinComb._raw(PHI, dict.fromkeys((p for p in set_partitions(n) if p.part_count == k), 1))


def word_complete_bell(n: int) -> LinComb:
    """The sum of Phi_pi over all set partitions pi of [n]."""
    return LinComb._raw(PHI, dict.fromkeys(set_partitions(n), 1))


def deriv_via_monomial(x: LinComb) -> LinComb:
    """The ladder operator written through the monomial basis.

    Rename the Phi coordinates as M coordinates, multiply by the one-letter
    complete function inside the algebra, rename back, and subtract the plain
    right multiplication.  Agrees with :func:`deriv` on every input.
    """
    if x.basis != PHI:
        raise BasisError("expected the Phi basis")
    as_m = x.retag("M")
    in_phi = monomial_to_phi(as_m)
    multiplied = _append_singleton(in_phi)
    back = phi_to_monomial(multiplied).retag(PHI)
    return back - _append_singleton(x)


# ---------------------------------------------------------------------------
# normalized Bell polynomials on the dual side


def psi_atom(seq: ColorSequence, m: int) -> LinComb:
    """The degree-m generator (m >= 1): the sum of Psi over all one-block colorings."""
    if m < 1:
        raise ValueError(f"psi_atom needs m >= 1, got {m}")
    atoms = _colorings(seq, m, (SetPartition.single_block(m),))
    return LinComb._raw(PSI, dict.fromkeys(atoms, 1))


def colored_psi_bell(seq: ColorSequence, n: int, k: int) -> LinComb:
    """The normalized partial Bell polynomial of the atomic generators
    F_m = :func:`psi_atom`, defined as [t^n] (sum_m F_m t^m)^k / k! in the
    dual algebra.

    Built as what that power equals: the plain sum of Psi over the colored
    partitions of size n with exactly k parts, zero for k outside 0..n.  The
    series power itself is the check, in ``verify``.
    """
    return LinComb._raw(PSI, dict.fromkeys(colored_partitions_k(seq, n, k), 1))


def colored_psi_complete(seq: ColorSequence, n: int) -> LinComb:
    """The sum over k of :func:`colored_psi_bell`: Psi summed over CP_n(a)."""
    return LinComb._raw(PSI, dict.fromkeys(colored_partitions(seq, n), 1))


# ---------------------------------------------------------------------------
# shuffle-power Bell polynomials for word polynomial arguments


def shuffle_partial_bell(generators: list, n: int, k: int) -> LinComb:
    """B_{n,k}(F) = [t^n] (sum_i F_i t^i)^(shuffle k) / k! for the list
    [_, F_1, F_2, ...] of generators, each F_i homogeneous of degree i
    (:func:`realization.shuffle_bell_series`)."""
    for i, f in enumerate(generators[1 : n + 1], 1):
        if f and word_degree(f) != i:
            raise ValueError(f"generator {i} is not homogeneous of degree {i}")
    return shuffle_bell_series(generators, k, n)[n]


# ---------------------------------------------------------------------------
# the specialization morphisms


def alpha(p: SparsePoly) -> LinComb:
    """The embedding of Sym: substitute c_i -> Psi of the one-block partition
    of size i and evaluate in the (commutative) uncolored dual algebra."""
    unit = psi_elem(SetPartition())
    return p.substitute(
        lambda i: psi_elem(SetPartition.single_block(i)),
        mul=psi_product,
        one=unit,
    )


def beta(x: LinComb, seq: ColorSequence) -> LinComb:
    """Color each uncolored key in all ways allowed by the sequence."""
    if x.basis != PSI:
        raise BasisError("beta acts on the Psi basis")
    return LinComb(PSI, (
        (colored, c) for key, c in x.items() for colored in _colorings(seq, key.size, (key,))
    ))


def gamma(x: LinComb) -> Fraction:
    """The character sending every basis key of size n to 1/n!."""
    total = Fraction(0)
    for key, c in x.items():
        total += Fraction(c) / math.factorial(key.size)
    return total


def gamma_beta(x: LinComb, a) -> Fraction:
    """gamma(beta_a(x)) computed through weights, valid for any rational
    sequence: a key pi contributes prod_B a_{#B} / |pi|!."""
    value = seq_values(a)
    total = Fraction(0)
    for key, c in x.items():
        weight = Fraction(1)
        for b in key.blocks:
            weight *= value(len(b))
        total += Fraction(c) * weight / math.factorial(key.size)
    return total


# ---------------------------------------------------------------------------
# report items


def report_item(identity: str, range_desc: str, failures) -> dict:
    """One verification report entry: what was checked, over which range, and
    the first counterexample (None when the identity held).

    ``failures`` is the item's counterexample stream: an iterable that yields
    one dict per failing case, in case order.  Only its first dict is read, so
    a lazy stream runs no case after the first counterexample.  A random draw
    that a later item's data depends on is made before the stream, never in
    it, so a failing item cannot shift the data of the items after it.
    """
    failure = next(iter(failures), None)
    return {
        "identity": identity,
        "range": range_desc,
        "status": "fail" if failure is not None else "pass",
        "counterexample": failure,
    }


# ---------------------------------------------------------------------------
# word identities (S-function form of the shuffle Bell polynomials)


def mixed_complete_family(a_prime, a_second, order: int) -> list[LinComb]:
    """The generators S_1(A') shuffled with S_{m-1}(A''), degrees 1..order."""
    out = [word_zero()]
    s1 = complete_s(1, a_prime)
    for m in range(1, order + 1):
        out.append(shuffle(s1, complete_s(m - 1, a_second)))
    return out


@lru_cache(maxsize=None)
def _mixed_bell_series_cached(a_prime, a_second, k: int, order: int):
    family = mixed_complete_family(list(a_prime), list(a_second), order)
    return shuffle_bell_series(family, k, order)


def mixed_bell_series(a_prime, a_second, k: int, order: int) -> list[LinComb]:
    """The series of B^{A'}_{.,k}(A'') by the shuffle-power definition."""
    return _mixed_bell_series_cached(tuple(a_prime), tuple(a_second), k, order)


def _alphabet(index: int, count: int) -> list[int]:
    """The first ``count`` letters of alphabet ``index`` as ints, letter i
    numbered by the Cantor pairing (index + i)(index + i + 1) / 2 + i.

    The pairing is injective, so distinct alphabets are disjoint and equal
    ones are equal (as ``lru_cache`` keys too).  The identity suite's words
    never leave it, and an int letter hashes without walking a letter tuple:
    the word shuffle hashes every letter of every word it counts.
    """
    return [(index + i) * (index + i + 1) // 2 + i for i in range(1, count + 1)]


def _faithful_alphabets(n: int, k: int) -> tuple[list, list]:
    """A' and A'' (alphabets 1 and 2 of :func:`_alphabet`) at the faithful
    truncation for degree n with k positions in A'.

    Every word of B^{A'}_{n,k}(A''), and of both sides of the S-function and
    binomiality identities (k = k1 + k2), has exactly k letters from A' and
    n - k from A''.  Both sides are symmetric in the letters of each alphabet,
    and restricting to fewer letters is a shuffle-algebra morphism, so the
    words whose letters are numbered in order of first use decide an
    identity: k letters of A' and n - k of A'' (one when n = k, so that the
    alphabet is never empty).
    """
    return _alphabet(1, max(k, 1)), _alphabet(2, max(n - k, 1))


def prop_s_form_check(n: int, k: int) -> dict:
    """B^{A'}_{n,k}(A'') equals S_{singletons k}(A') shuffled with
    S_{{1..n-k}}(k A''), at the faithful truncation."""
    a_prime, a_second = _faithful_alphabets(n, k)
    lhs = mixed_bell_series(a_prime, a_second, k, n)[n]
    rhs = shuffle(
        expand_s_on(SetPartition.singletons(k), a_prime),
        complete_s(n - k, a_second, k),
    )
    failures = [{"n": n, "k": k}] if lhs != rhs else []
    return report_item("partial Bell as S-function product", f"n={n}, k={k}", failures)


def binomiality_check(n: int, k1: int, k2: int) -> dict:
    """C(k1+k2, k1) B_{n,k1+k2} = sum_i B_{i,k1} shuffle B_{n-i,k2}, at the
    faithful truncation: each word on either side has k1 + k2 letters of A'."""
    k = k1 + k2
    a_prime, a_second = _faithful_alphabets(n, k)
    series_k = mixed_bell_series(a_prime, a_second, k, n)
    series_1 = mixed_bell_series(a_prime, a_second, k1, n)
    series_2 = mixed_bell_series(a_prime, a_second, k2, n)
    lhs = series_k[n] * math.comb(k, k1)
    rhs = shuffle_sum((series_1[i], series_2[n - i]) for i in range(n + 1))
    failures = [{"n": n, "k1": k1, "k2": k2}] if lhs != rhs else []
    return report_item("binomiality of partial word Bell polynomials", f"n={n}, k1={k1}, k2={k2}", failures)


def _convolution_batch(max_n: int, max_k: int) -> list[dict]:
    """The alphabet-sum convolution, with the index shift that balances the
    degrees: S_(k singletons)(A') shuffle B_{n,k}(A'') equals
    sum_i B_{i,k}(A''_1) shuffle B_{n+k-i,k}(A''_2) for A'' = A''_1 + A''_2.

    Both sides go to ``realization.shuffle_sums_agree``, which tests their
    difference one letter-content component at a time, every component and
    exactly, so neither side is built whole: at (n, k) = (5, 2) each holds
    35,840 seven-letter words.
    """
    # One series power per (alphabet, k); individual n slices are then cheap.
    report = []
    truncation = 2  # letters per alphabet
    a_prime = _alphabet(1, truncation)
    a_one = _alphabet(2, truncation)
    a_two = _alphabet(3, truncation)
    a_union = a_one + a_two
    for k in range(1, max_k + 1):
        series_u = mixed_bell_series(a_prime, a_union, k, max_n)
        series_1 = mixed_bell_series(a_prime, a_one, k, max_n)
        series_2 = mixed_bell_series(a_prime, a_two, k, max_n)
        singles = expand_s_on(SetPartition.singletons(k), a_prime)
        for n in range(k, max_n + 1):
            rhs = ((series_1[i], series_2[n + k - i]) for i in range(max(k, n + k - max_n), n + 1))
            failures = [] if shuffle_sums_agree([(singles, series_u[n])], rhs) else [{"n": n, "k": k}]
            report.append(report_item("convolution over an alphabet sum", f"n={n}, k={k}, L={truncation}", failures))
    return report


def _composition_batch(max_n: int, max_k: int) -> list[dict]:
    """Composing partial word Bell polynomials telescopes:

    B_{n,k1}(args F_m = B^{A'}_{k2+m-1,k2}(A'')) equals
    (k1 k2)! / (k1! k2!^{k1}) times B^{A'}_{n-k1+k1k2, k1k2}(A'').

    At k1 = 1 the rhs series is the very ``mixed_bell_series`` entry of the
    base, so the item compares the base with itself through a unit product;
    at k1 = 2 the lhs square repeats the square inside the rhs's
    ``series.power`` on rescaled copies of the same polynomials.  Those
    items can fail only on a scalar or truncation slip.
    """
    report = []
    for k1 in range(1, max_k + 1):
        for k2 in range(1, max_k + 1):
            truncation = 2 if k1 * k2 <= 4 else 1
            a_prime = _alphabet(1, truncation)
            a_second = _alphabet(2, truncation)
            base = mixed_bell_series(a_prime, a_second, k2, k2 + max_n - 1)
            args = [word_zero()] + [base[k2 + m - 1] for m in range(1, max_n + 1)]
            powered = series_shuffle_power(args, k1, max_n)
            top_target = max_n - k1 + k1 * k2
            rhs_series = mixed_bell_series(a_prime, a_second, k1 * k2, top_target)
            # both sides times k1! k2!^k1, so the scalars are integers
            lhs_scale = math.factorial(k2) ** k1
            rhs_scale = math.factorial(k1 * k2)
            for n in range(k1, max_n + 1):
                lhs = powered[n] * lhs_scale
                rhs = rhs_series[n - k1 + k1 * k2] * rhs_scale
                failures = [{"n": n, "k1": k1, "k2": k2}] if lhs != rhs else []
                report.append(report_item(
                    "composition of partial word Bell polynomials",
                    f"n={n}, k1={k1}, k2={k2}, L={truncation}",
                    failures,
                ))
    return report


_FAMILIES = ("completeToS", "binomiality", "convolution", "composition", "all")


def identity_suite(which: str = "all", max_n: int = 5, max_k: int = 3) -> list[dict]:
    """Run the selected word identities over the full grid.

    ``which`` is one of ``completeToS`` (the S-function form), ``binomiality``,
    ``convolution``, ``composition`` or ``all``.  Truncations: the first two
    families are checked at the faithful truncation of
    :func:`_faithful_alphabets` (k letters of A' and n - k of A'').
    The convolution and composition checks run over two-letter alphabets
    (one-letter when k1*k2 > 4), below the degree of most of their cases:
    the arithmetic is exact, but a pass there is a necessary check of the
    identity, not a faithful one.  A failure is still a real counterexample.
    Every alphabet is built by :func:`_alphabet`, so the words carry int
    letters, not the ``(alphabet, index)`` pairs of ``realization.letters``;
    a report names only n, k, k1, k2 and L, never a letter.  Any other
    ``which`` raises ``ValueError``: an empty report would read as a pass.
    """
    if which not in _FAMILIES:
        raise ValueError(f"unknown word identity family {which!r}; choose one of {', '.join(_FAMILIES)}")
    report = []
    if which in ("completeToS", "all"):
        for n in range(1, max_n + 1):
            for k in range(1, min(n, max_k) + 1):
                report.append(prop_s_form_check(n, k))
    if which in ("binomiality", "all"):
        for n in range(1, max_n + 1):
            for k1 in range(1, max_k + 1):
                for k2 in range(k1, max_k + 1):
                    if k1 + k2 <= n:
                        report.append(binomiality_check(n, k1, k2))
    if which in ("convolution", "all"):
        report.extend(_convolution_batch(max_n, max_k))
    if which in ("composition", "all"):
        report.extend(_composition_batch(max_n, max_k))
    return report
