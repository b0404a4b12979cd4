"""Bell polynomials: classical, word, colored and shuffle variants.

Four incarnations of the same combinatorics live here:

* classical complete/partial Bell polynomials as exact symbolic polynomials
  in a1, a2, ... and their exact evaluation by triangular recurrences;
* word Bell polynomials in the Phi basis, generated by the ladder operator
  that adjoins a new largest element to a block;
* their normalized images on the dual (Psi) side for any color sequence;
* shuffle-power Bell polynomials for arbitrary word polynomial arguments.

The module also hosts the specialization morphisms connecting symmetric
functions to the colored dual algebra, plus report-style verifiers for the
identities relating all of the above.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from . import series
from .combinatorics import (
    ColoredSetPartition,
    ColorSequence,
    SetPartition,
    colored_partitions,
    int_partitions,
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
from .lincomb import BasisError, LinComb, TPoly, _ladder
from .realization import (
    complete_s,
    expand_s_on,
    letters,
    scaled_complete,
    series_shuffle_power,
    shuffle,
    word_degree,
    word_one,
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
    """B_{n,k} = n!/k! [t^n] (sum_j a_j t^j / j!)^k, an exact polynomial in
    the variables a1, a2, ..."""
    if k < 0 or k > n:
        return SparsePoly.zero()
    powered = series.power(_exponential_a_series(n), k, n, SparsePoly.const(1))
    return powered[n] * Fraction(math.factorial(n), math.factorial(k))


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
    if isinstance(a, ColorSequence):
        return lambda m: Fraction(a(m))
    if callable(a):
        return lambda m: Fraction(a(m))
    values = [Fraction(v) for v in a]
    return lambda m: values[m - 1] if m <= len(values) else Fraction(0)


def eval_partial_bell_direct(a, n: int, k: int) -> Fraction:
    """B_{n,k}(a) summed over integer partitions: the independent oracle."""
    if k < 0 or k > n:
        return Fraction(0)
    if n == 0:
        return Fraction(1) if k == 0 else Fraction(0)
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
        (SetPartition._trusted(key.blocks[:i] + (b + (key.size + 1,),) + key.blocks[i + 1:]), c)
        for key, c in x.items()
        for i, b in enumerate(key.blocks)
    ))


def _append_singleton(x: LinComb) -> LinComb:
    return phi_product(x, phi_elem(SetPartition.singletons(1)))


def word_bell_tpoly(n: int) -> TPoly:
    """The t-marked operator power: coefficient of t^k is the partial word
    Bell polynomial with k blocks."""
    return _ladder(phi_elem(SetPartition()), _append_singleton, deriv, n)


def word_partial_bell(n: int, k: int) -> LinComb:
    return word_bell_tpoly(n).coeff(k)


def word_complete_bell(n: int) -> LinComb:
    return word_bell_tpoly(n).at_one()


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
    """The degree-m generator: the sum of Psi over all one-block colorings."""
    out: dict = {}
    block = tuple(range(1, m + 1))
    for c in range(1, seq(m) + 1):
        out[ColoredSetPartition._trusted(((block, c),), seq)] = 1
    return LinComb._raw(PSI, out)


def colored_psi_bell(seq: ColorSequence, n: int, k: int, generators=None) -> LinComb:
    """The normalized partial Bell polynomial of the atomic generators,
    computed as [t^n] (sum_i F_i t^i)^k / k! in the dual algebra.

    Equals the plain sum of Psi over all colored partitions of size n with
    exactly k parts.
    """
    if k < 0 or k > n:
        return LinComb.zero(PSI)
    unit = psi_elem(ColoredSetPartition.empty(seq))
    if generators is None:
        generators = [psi_atom(seq, m) for m in range(1, n + 1)]
    product = lambda x, y, top: series.mul(x, y, top, unit, psi_product)
    powered = series.power([LinComb.zero(PSI)] + list(generators[:n]), k, n, unit, product)
    return powered[n] * Fraction(1, math.factorial(k))


def colored_psi_complete(seq: ColorSequence, n: int) -> LinComb:
    total = LinComb.zero(PSI)
    for k in range(0 if n == 0 else 1, n + 1):
        total = total + colored_psi_bell(seq, n, k)
    return total


# ---------------------------------------------------------------------------
# shuffle-power Bell polynomials for word polynomial arguments


def shuffle_bell_series(generators, k: int, order: int) -> list[LinComb]:
    """Coefficients of (sum_i F_i t^i)^(shuffle k) / k! up to t^order.

    ``generators`` maps degree i >= 1 to the word polynomial F_i (list with
    index 0 unused, or mapping).
    """
    base = [word_zero()]
    for i in range(1, order + 1):
        try:
            f = generators[i]
        except (IndexError, KeyError):
            f = word_zero()
        base.append(f)
    powered = series_shuffle_power(base, k, order)
    if k < 2:
        return powered  # k! = 1: keep the kernel's int coefficients
    scale = Fraction(1, math.factorial(k))
    return [c * scale for c in powered]


def shuffle_partial_bell(generators, n: int, k: int) -> LinComb:
    """[t^n] of the k-fold shuffle power over k!, for homogeneous generators."""
    for i in range(1, n + 1):
        try:
            f = generators[i]
        except (IndexError, KeyError):
            continue
        if f and word_degree(f) != i:
            raise ValueError(f"generator {i} is not homogeneous of degree {i}")
    if k == 0:
        return word_one() if n == 0 else word_zero()
    return shuffle_bell_series(generators, k, n)[n]


def shuffle_complete_bell(generators, n: int) -> LinComb:
    total = word_one() if n == 0 else word_zero()
    for k in range(1, n + 1):
        total = total + shuffle_partial_bell(generators, n, k)
    return total


# ---------------------------------------------------------------------------
# the specialization morphisms


@lru_cache(maxsize=None)
def h_in_c(n: int) -> SparsePoly:
    """The complete function h_n written in the generators c_1, c_2, ...

    h_n = sum over partitions lambda of n of c_lambda, where c_lambda divides
    the monomial by the multiplicities' factorials.
    """
    total = SparsePoly.zero()
    for lam in int_partitions(n):
        mono = SparsePoly.const(1)
        mult: dict[int, int] = {}
        for part in lam:
            mono = mono * SparsePoly.var(part)
            mult[part] = mult.get(part, 0) + 1
        coeff = Fraction(1)
        for m in mult.values():
            coeff /= math.factorial(m)
        total = total + mono * coeff
    return total


def alpha(p: SparsePoly) -> LinComb:
    """The embedding of Sym: substitute c_i -> Psi of the one-block partition
    of size i and evaluate in the (commutative) uncolored dual algebra."""
    unit = psi_elem(SetPartition())
    return p.substitute(
        lambda i: psi_elem(SetPartition.single_block(i)),
        mul=lambda a, b: psi_product(a, b) if isinstance(a, LinComb) else b * a,
        one=unit,
    )


def beta(x: LinComb, seq: ColorSequence) -> LinComb:
    """Color each uncolored key in all ways allowed by the sequence."""
    if x.basis != PSI:
        raise BasisError("beta acts on the Psi basis")
    from itertools import product as _product

    # a block size with no colors (a_m = 0) leaves an empty product: no terms
    return LinComb(PSI, (
        (ColoredSetPartition._trusted(tuple(zip(key.blocks, colors)), seq), c)
        for key, c in x.items()
        for colors in _product(*(range(1, seq(len(b)) + 1) for b in key.blocks))
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


def gamma_beta_alpha_h(n: int, a) -> Fraction:
    """The composite of the specialization diagram applied to h_n."""
    return gamma_beta(alpha(h_in_c(n)), a)


def report_item(identity: str, range_desc: str, failure) -> dict:
    """One verification report entry: what was checked, over which range, and
    the first counterexample (None when the identity held)."""
    return {
        "identity": identity,
        "range": range_desc,
        "status": "fail" if failure else "pass",
        "counterexample": failure,
    }


def _random_rational_sequence(rng: random.Random, length: int) -> list[Fraction]:
    return [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(length)
    ]


def morphism_diagram_report(
    max_n: int = 6,
    sequences: tuple[ColorSequence, ...] | None = None,
    rational_trials: int = 2,
    seed: int = 0,
    pair_max: int = 5,
) -> list[dict]:
    """Verify that the specialization diagram commutes and that the character
    is multiplicative; returns one report entry per check."""
    from .combinatorics import FACTORIAL, IDEMPOTENT, ONES, SHIFTED_FACTORIAL

    if sequences is None:
        sequences = (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT)
    report = []
    for seq in sequences:
        failure = None
        for n in range(max_n + 1):
            got = gamma_beta_alpha_h(n, seq)
            want = eval_complete_bell(seq, n) / math.factorial(n)
            if got != want:
                failure = {"n": n, "got": str(got), "want": str(want)}
                break
            materialized = gamma(beta(alpha(h_in_c(n)), seq))
            if materialized != want:
                failure = {"n": n, "route": "materialized", "got": str(materialized)}
                break
        report.append(
            report_item(f"diagram h_n -> A_n(a)/n! [{seq.spec_string()}]", f"n <= {max_n}", failure)
        )
    rng = random.Random(seed)
    for t in range(rational_trials):
        a = _random_rational_sequence(rng, max_n + 1)
        failure = None
        for n in range(max_n + 1):
            got = gamma_beta_alpha_h(n, a)
            want = eval_complete_bell(a, n) / math.factorial(n)
            if got != want:
                failure = {"n": n, "a": [str(v) for v in a], "got": str(got)}
                break
        report.append(
            report_item(f"diagram h_n -> A_n(a)/n! [random rational #{t + 1}]", f"n <= {max_n}", failure)
        )
    for seq in sequences:
        failure = None
        keys_by_size = {
            m: colored_partitions(seq, m) for m in range(1, pair_max)
        }
        for i in range(1, pair_max):
            for j in range(1, pair_max - i + 1):
                for ki in keys_by_size[i]:
                    for kj in keys_by_size[j]:
                        prod = psi_product(psi_elem(ki), psi_elem(kj))
                        if gamma(prod) != gamma(psi_elem(ki)) * gamma(psi_elem(kj)):
                            failure = {"left": str(ki.parts), "right": str(kj.parts)}
                            break
                    if failure:
                        break
                if failure:
                    break
            if failure:
                break
        report.append(
            report_item(f"gamma multiplicative [{seq.spec_string()}]", f"total size <= {pair_max}", failure)
        )
    return report


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


def prop_s_form_check(n: int, k: int) -> dict:
    """B^{A'}_{n,k}(A'') equals S_{singletons k}(A') shuffled with
    S_{{1..n-k}}(k A''), at the faithful truncation."""
    a_prime = letters(1, max(k, 1))
    a_second = letters(2, max(n - k, 1))
    lhs = mixed_bell_series(a_prime, a_second, k, n)[n]
    rhs = shuffle(
        expand_s_on(SetPartition.singletons(k), a_prime),
        scaled_complete(n - k, k, a_second),
    )
    failure = None if lhs == rhs else {"n": n, "k": k}
    return report_item("partial Bell as S-function product", f"n={n}, k={k}", failure)


def binomiality_check(n: int, k1: int, k2: int) -> dict:
    """C(k1+k2, k1) B_{n,k1+k2} = sum_i B_{i,k1} shuffle B_{n-i,k2}."""
    k = k1 + k2
    a_prime = letters(1, max(k, 1))
    a_second = letters(2, max(n - min(k1, k2), 1))
    series_k = mixed_bell_series(a_prime, a_second, k, n)
    series_1 = mixed_bell_series(a_prime, a_second, k1, n)
    series_2 = mixed_bell_series(a_prime, a_second, k2, n)
    lhs = series_k[n] * math.comb(k, k1)
    rhs = word_zero()
    for i in range(n + 1):
        if series_1[i] and series_2[n - i]:
            rhs = rhs + shuffle(series_1[i], series_2[n - i])
    failure = None if lhs == rhs else {"n": n, "k1": k1, "k2": k2}
    return report_item("binomiality of partial word Bell polynomials", f"n={n}, k1={k1}, k2={k2}", failure)


def _convolution_batch(max_n: int, max_k: int, truncation: int = 2) -> list[dict]:
    """The alphabet-sum convolution, with the index shift that balances the
    degrees: S_(k singletons)(A') shuffle B_{n,k}(A'') equals
    sum_i B_{i,k}(A''_1) shuffle B_{n+k-i,k}(A''_2) for A'' = A''_1 + A''_2.
    """
    # One series power per (alphabet, k); individual n slices are then cheap.
    report = []
    a_prime = letters(1, truncation)
    a_one = letters(2, truncation)
    a_two = letters(3, truncation)
    a_union = a_one + a_two
    for k in range(1, max_k + 1):
        series_u = mixed_bell_series(a_prime, a_union, k, max_n)
        series_1 = mixed_bell_series(a_prime, a_one, k, max_n)
        series_2 = mixed_bell_series(a_prime, a_two, k, max_n)
        singles = expand_s_on(SetPartition.singletons(k), a_prime)
        for n in range(k, max_n + 1):
            lhs = shuffle(singles, series_u[n])
            rhs = word_zero()
            for i in range(k, n + 1):
                j = n + k - i
                if j < k or j > max_n:
                    continue
                if series_1[i] and series_2[j]:
                    rhs = rhs + shuffle(series_1[i], series_2[j])
            failure = None if lhs == rhs else {"n": n, "k": k}
            report.append(
                report_item("convolution over an alphabet sum", f"n={n}, k={k}, L={truncation}", failure)
            )
    return report


def _composition_batch(max_n: int, max_k: int) -> list[dict]:
    """Composing partial word Bell polynomials telescopes:

    B_{n,k1}(args F_m = B^{A'}_{k2+m-1,k2}(A'')) equals
    (k1 k2)! / (k1! k2!^{k1}) times B^{A'}_{n-k1+k1k2, k1k2}(A'').
    """
    report = []
    for k1 in range(1, max_k + 1):
        for k2 in range(1, max_k + 1):
            truncation = 2 if k1 * k2 <= 4 else 1
            a_prime = letters(1, truncation)
            a_second = letters(2, truncation)
            base = mixed_bell_series(a_prime, a_second, k2, k2 + max_n - 1)
            args = [word_zero()] + [base[k2 + m - 1] for m in range(1, max_n + 1)]
            powered = series_shuffle_power(args, k1, max_n)
            top_target = max_n - k1 + k1 * k2
            rhs_series = mixed_bell_series(a_prime, a_second, k1 * k2, top_target)
            prefactor = Fraction(
                math.factorial(k1 * k2),
                math.factorial(k1) * math.factorial(k2) ** k1,
            )
            for n in range(k1, max_n + 1):
                lhs = powered[n] * Fraction(1, math.factorial(k1))
                rhs = rhs_series[n - k1 + k1 * k2] * prefactor
                failure = None if lhs == rhs else {"n": n, "k1": k1, "k2": k2}
                report.append(report_item(
                    "composition of partial word Bell polynomials",
                    f"n={n}, k1={k1}, k2={k2}, L={truncation}",
                    failure,
                ))
    return report


def identity_suite(which: str = "all", max_n: int = 5, max_k: int = 3) -> list[dict]:
    """Run the selected word identities over the full grid.

    ``which`` is one of ``completeToS`` (the S-function form), ``binomiality``,
    ``convolution``, ``composition`` or ``all``.  Truncations: the first two
    families are checked at the faithful truncation (L at least the degree).
    The convolution and composition checks run over two-letter alphabets
    (one-letter when k1*k2 > 4), below the degree of most of their cases:
    the arithmetic is exact, but a pass there is a necessary check of the
    identity, not a faithful one.  A failure is still a real counterexample.
    """
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
