"""Commutative symmetric functions in the c-basis and virtual alphabets.

Sym is the free commutative algebra on c_1, c_2, ... (c_n carrying degree n),
related to the complete functions by the exponential of the generating
series.  A virtual alphabet is just a finite list of rational values for the
c_n up to a degree bound; every specialization morphism, alphabet operation
(sum, scale, product, composition, compositional inverse) and Schur function
evaluation is exact.

The appendix_suite function replays the classical partial-Bell identities
through this calculus with random rational data; each item reports pass or
fail with a counterexample.  Where a source formula failed cross-validation,
the corrected reading is implemented and the report says which reading runs
(see inverse_closed_form and the two-determinant item).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import series
from .bell import eval_partial_bell, report_item
from .combinatorics import int_partitions
from .sympoly import SparsePoly


# ---------------------------------------------------------------------------
# h <-> c symbolically


def _generators(n: int) -> list[SparsePoly]:
    """The variables x_1, ..., x_n, the coefficients of sum_j x_j t^j."""
    return [SparsePoly.var(j) for j in range(1, n + 1)]


def h_from_c(n: int) -> SparsePoly:
    """h_n written in the generators c_1, ..., c_n: [t^n] exp(sum c_j t^j)."""
    return series.exp([SparsePoly.zero()] + _generators(n), n, SparsePoly.const(1))[n]


def c_from_h(n: int) -> SparsePoly:
    """c_n written in the complete functions h_1, ..., h_n: [t^n] log(sigma_t)."""
    one = SparsePoly.const(1)
    return series.log([one] + _generators(n), n, one)[n]


@lru_cache(maxsize=None)
def h_k_part(n: int, k: int) -> SparsePoly:
    """The alpha^k component of h_n(alpha X): [t^n] (sum c_i t^i)^k / k!."""
    if k < 0 or k > n:
        return SparsePoly.zero()
    powered = series.power([SparsePoly.zero()] + _generators(n), k, n, SparsePoly.const(1))
    return powered[n] * Fraction(1, math.factorial(k))


def scaled_h(n: int) -> dict[int, SparsePoly]:
    """h_n(alpha X) as a polynomial in the marker alpha: k -> h_n^(k)."""
    return {k: h_k_part(n, k) for k in range(n + 1) if h_k_part(n, k)}


# ---------------------------------------------------------------------------
# virtual alphabets


@dataclass(frozen=True)
class VirtualAlphabet:
    """A specialization of Sym: the values c_1(X), ..., c_N(X)."""

    c_values: tuple[Fraction, ...]

    @classmethod
    def from_c(cls, values) -> "VirtualAlphabet":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def from_h(cls, h_values) -> "VirtualAlphabet":
        """Build from h_1, ..., h_N (h_0 = 1 implicit) by taking a logarithm."""
        hs = [Fraction(1)] + [Fraction(v) for v in h_values]
        order = len(hs) - 1
        return cls(tuple(series.log(hs, order)[1:]))

    @classmethod
    def zero(cls, degree: int) -> "VirtualAlphabet":
        return cls((Fraction(0),) * degree)

    @classmethod
    def ones(cls, degree: int) -> "VirtualAlphabet":
        """The alphabet with c_n = 1/n, whose complete functions are all 1."""
        return cls(tuple(Fraction(1, n) for n in range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.c_values)

    def c(self, n: int) -> Fraction:
        if not 1 <= n <= self.degree:
            raise ValueError(f"c_{n} exceeds the degree bound {self.degree}")
        return self.c_values[n - 1]

    def h(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        return _h_values(self)[n]

    def e(self, n: int) -> Fraction:
        if n == 0:
            return Fraction(1)
        return _e_values(self)[n]

    def truncate(self, degree: int) -> "VirtualAlphabet":
        if degree > self.degree:
            raise ValueError("cannot extend an alphabet")
        return VirtualAlphabet(self.c_values[:degree])


# identity for composition: sigma_t = 1, i.e. every c_n = 0
identity_alphabet = VirtualAlphabet.zero


@lru_cache(maxsize=None)
def _h_values(x: VirtualAlphabet) -> tuple[Fraction, ...]:
    order = x.degree
    arg = [Fraction(0)] + list(x.c_values)
    return tuple(series.exp(arg, order))


@lru_cache(maxsize=None)
def _e_values(x: VirtualAlphabet) -> tuple[Fraction, ...]:
    order = x.degree
    h = _h_values(x)
    sig_neg = [h[i] * (-1) ** i for i in range(order + 1)]
    return tuple(series.reciprocal(sig_neg, order))


def eval_sym(p: SparsePoly, x: VirtualAlphabet) -> Fraction:
    """Evaluate a polynomial in the c-generators at the alphabet."""
    return Fraction(p.evaluate(x.c))


# ---------------------------------------------------------------------------
# alphabet operations


def _common_degree(x: VirtualAlphabet, y: VirtualAlphabet) -> int:
    return min(x.degree, y.degree)


def alphabet_sum(x: VirtualAlphabet, y: VirtualAlphabet) -> VirtualAlphabet:
    n = _common_degree(x, y)
    return VirtualAlphabet(tuple(x.c(i) + y.c(i) for i in range(1, n + 1)))


def alphabet_scale(r, x: VirtualAlphabet) -> VirtualAlphabet:
    r = Fraction(r)
    return VirtualAlphabet(tuple(r * v for v in x.c_values))


def alphabet_product(x: VirtualAlphabet, y: VirtualAlphabet) -> VirtualAlphabet:
    """The product alphabet: c_n(XY) = n c_n(X) c_n(Y)."""
    n = _common_degree(x, y)
    return VirtualAlphabet(tuple(i * x.c(i) * y.c(i) for i in range(1, n + 1)))


def alphabet_compose(x: VirtualAlphabet, y: VirtualAlphabet) -> VirtualAlphabet:
    """Composition through the Cauchy series: sigma(X o Y) = f(g(t))/t for
    f = t sigma_t(X), g = t sigma_t(Y)."""
    n = _common_degree(x, y)
    f = [Fraction(0)] + list(_h_values(x.truncate(n)))
    g = [Fraction(0)] + list(_h_values(y.truncate(n)))
    comp = series.compose(f, g[: n + 1], n + 1)
    h_new = comp[1:]
    return VirtualAlphabet.from_h(h_new[1:])


def alphabet_inverse(x: VirtualAlphabet) -> VirtualAlphabet:
    """The compositional inverse: sigma_t(X o X^<-1>) = 1, solved by series
    reversion of t sigma_t(X)."""
    n = x.degree
    f = [Fraction(0)] + list(_h_values(x))
    g = series.reversion(f, n + 1)
    return VirtualAlphabet.from_h(g[2:])


def inverse_closed_form(x: VirtualAlphabet, n: int) -> Fraction:
    """h_n of the inverse alphabet by the corrected Bell closed form.

    h_n(X^<-1>) = n!/(2n+1)! B_{2n+1,n+1}(1, -2! e_1, 3! e_2, -4! e_3, ...);
    the printed form of this identity (index n instead of n+1, an extra
    (n+1) in the denominator, a single sign) fails already at n = 1, so the
    corrected version is used and the triangular solve cross-checks it.
    """
    def arg(j: int) -> Fraction:
        if j == 1:
            return Fraction(1)
        # parts of 2n+1 into n+1 blocks never exceed n+1, so e_n suffices
        return (-1) ** (j - 1) * math.factorial(j) * x.e(j - 1)

    value = eval_partial_bell(arg, 2 * n + 1, n + 1)
    return Fraction(math.factorial(n), math.factorial(2 * n + 1)) * value


# ---------------------------------------------------------------------------
# Schur functions


def _det(mat) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    size = len(mat)
    if size == 0:
        return Fraction(1)
    rows = [[Fraction(v) for v in row] for row in mat]
    sign = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            if factor:
                rows[r] = [
                    rows[r][j] - factor * rows[col][j] for j in range(size)
                ]
    det = Fraction(sign)
    for i in range(size):
        det *= rows[i][i]
    return det


def schur(lam, x: VirtualAlphabet) -> Fraction:
    """s_lambda(X) by the Jacobi-Trudi determinant of complete functions."""
    lam = tuple(lam)
    size = len(lam)
    if size == 0:
        return Fraction(1)

    def h_at(m: int) -> Fraction:
        return x.h(m) if m >= 0 else Fraction(0)

    mat = [[h_at(lam[i] - (i + 1) + (j + 1)) for j in range(size)] for i in range(size)]
    return _det(mat)


# ---------------------------------------------------------------------------
# the appendix identity suite


def _rand_fraction(rng: random.Random, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_sequence(rng: random.Random, length: int, unit_head: bool = True):
    out = [Fraction(1) if unit_head else _rand_fraction(rng)]
    out.extend(_rand_fraction(rng) for _ in range(length - 1))
    return out


def hat_alphabet(a, degree: int) -> VirtualAlphabet:
    """The alphabet with h_i = a_{i+1}/(i+1)!; requires a_1 = 1."""
    from .bell import seq_values

    value = seq_values(a)
    if value(1) != 1:
        raise ValueError("the hat alphabet needs a_1 = 1")
    hs = [value(i + 1) / math.factorial(i + 1) for i in range(1, degree + 1)]
    return VirtualAlphabet.from_h(hs)


def appendix_suite(seed: int = 0) -> list[dict]:
    """Run the nine appendix identities at desk scale; see module docstring."""
    rng = random.Random(seed)
    report = []

    # (i) B_{n,k}(a) = n!/k! h_{n-k}(k Xhat)
    a = _rand_sequence(rng, 10)
    failure = None
    for n in range(9):
        for k in range(n + 1):
            lhs = eval_partial_bell(a, n, k)
            if k == 0:
                rhs = Fraction(1) if n == 0 else Fraction(0)
            else:
                hat = hat_alphabet(a, max(n - k, 1))
                rhs = (
                    Fraction(math.factorial(n), math.factorial(k))
                    * alphabet_scale(k, hat).h(n - k)
                )
            if lhs != rhs:
                failure = {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}
                break
        if failure:
            break
    report.append(report_item("partial Bell as scaled complete function", "n <= 8", failure))

    # (ii) binomial splitting of the block count
    a = _rand_sequence(rng, 8, unit_head=False)
    failure = None
    for n in range(8):
        for k1 in range(4):
            for k2 in range(4):
                lhs = math.comb(k1 + k2, k1) * eval_partial_bell(a, n, k1 + k2)
                rhs = sum(
                    (
                        math.comb(n, i)
                        * eval_partial_bell(a, i, k1)
                        * eval_partial_bell(a, n - i, k2)
                        for i in range(n + 1)
                    ),
                    Fraction(0),
                )
                if failure is None and lhs != rhs:
                    failure = {"n": n, "k1": k1, "k2": k2}
    report.append(report_item("binomial splitting of partial Bell", "n <= 7, k_i <= 3", failure))

    # (iii) convolution over a product-type sequence
    a = _rand_sequence(rng, 8)
    b = _rand_sequence(rng, 8)
    d = []
    for p in range(1, 9):
        tot = Fraction(0)
        for r in range(1, p + 1):
            tot += math.comb(p + 1, r) * a[r - 1] * b[p - r]
        d.append(tot / (p + 1))
    failure = None
    for n in range(8):
        for k in range(1, n + 1):
            lhs = math.comb(n, k) * eval_partial_bell(d, n - k, k)
            rhs = sum(
                (
                    math.comb(n, i)
                    * eval_partial_bell(a, i, k)
                    * eval_partial_bell(b, n - i, k)
                    for i in range(k, n - k + 1)
                ),
                Fraction(0),
            )
            if failure is None and lhs != rhs:
                failure = {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}
    report.append(report_item("convolution formula for partial Bell", "n <= 7", failure))

    # (iv) idempotent closed form
    failure = None
    for n in range(9):
        for k in range(1, n + 1):
            if failure is None and eval_partial_bell(lambda m: m, n, k) != math.comb(n, k) * k ** (n - k):
                failure = {"n": n, "k": k}
    report.append(report_item("idempotent-number evaluation", "n <= 8", failure))

    # (v) binomial families: the power and Abel families, plus composition
    failure = None
    for family, name in (
        (lambda m, t: t**m, "power"),
        (lambda m, t: t * (t + m) ** (m - 1) if m else Fraction(1), "abel"),
    ):
        t_val = _rand_fraction(rng, 1, 4, 2)
        for n in range(7):
            for k in range(1, n + 1):
                args = [Fraction(1)] + [
                    i * family(i - 1, t_val) for i in range(2, n + 1)
                ]
                lhs = eval_partial_bell(args, n, k)
                rhs = math.comb(n, k) * family(n - k, k * t_val)
                if failure is None and lhs != rhs:
                    failure = {"family": name, "n": n, "k": k}
    a = _rand_sequence(rng, 12)
    for k1 in (1, 2):
        for k2 in (1, 2):
            for n in range(k1, 7):
                y = [
                    math.factorial(m)
                    * eval_partial_bell(a, k2 + m - 1, k2)
                    / math.factorial(k2 + m - 1)
                    for m in range(1, n + 1)
                ]
                lhs = eval_partial_bell(y, n, k1)
                n2 = n - k1 + k1 * k2
                pref = Fraction(
                    math.factorial(k1 * k2),
                    math.factorial(k1) * math.factorial(k2) ** k1,
                )
                rhs = (
                    Fraction(math.factorial(n), math.factorial(n2))
                    * pref
                    * eval_partial_bell(a, n2, k1 * k2)
                )
                if failure is None and lhs != rhs:
                    failure = {"part": "composition", "n": n, "k1": k1, "k2": k2}
    report.append(report_item("binomial-family and composition identities", "n <= 6", failure))

    # (vi) the alternating recurrence in the block count
    a = _rand_sequence(rng, 8)
    failure = None
    for n in range(2, 8):
        for k in range(1, n):
            rhs = Fraction(0)
            for i in range(1, n - k + 1):
                weight = Fraction(k + 1) - Fraction(n + 1, i + 1)
                rhs += math.comb(n, i) * weight * a[i] * eval_partial_bell(a, n - i, k)
            rhs /= n - k
            if failure is None and eval_partial_bell(a, n, k) != rhs:
                failure = {"n": n, "k": k}
    report.append(report_item("alternating recurrence (a_1 = 1)", "n <= 7", failure))

    # (vii) Lambert/tree evaluation
    failure = None
    for n in range(1, 9):
        for k in range(1, n + 1):
            lhs = eval_partial_bell(lambda m: m ** (m - 1), n, k)
            if failure is None and lhs != math.comb(n - 1, k - 1) * n ** (n - k):
                failure = {"n": n, "k": k}
    report.append(report_item("tree-function evaluation", "n <= 8", failure))

    # (viii) the two-determinant product-alphabet identity
    a = _rand_sequence(rng, 12)
    b = _rand_sequence(rng, 12)
    readings = {}
    for reading in ("printed", "corrected"):
        readings[reading] = _two_determinant_failure(a, b, reading)
    failure = readings["corrected"]
    note = (
        "printed factorial index fails at n = 2; corrected (lam_i - i + j + 1)! "
        "and k2 in the second determinant pass"
        if readings["printed"] and not readings["corrected"]
        else None
    )
    item = report_item("two-determinant product identity", "n <= 5, k in {1,2,4}", failure)
    if note:
        item["note"] = note
    report.append(item)

    # (ix) the Lagrange-flavoured evaluation of scaled complete functions
    x = VirtualAlphabet.from_c(_rand_sequence(rng, 8, unit_head=False))
    failure = None
    for n in range(1, 8):
        for k in range(1, n + 1):
            args = [Fraction(1)] + [
                math.factorial(m - 1) * alphabet_scale(m, x).h(m - 1)
                for m in range(2, n + 1)
            ]
            lhs = eval_partial_bell(args, n, k)
            rhs = (
                Fraction(math.factorial(n - 1), math.factorial(k - 1))
                * alphabet_scale(n, x).h(n - k)
            )
            if failure is None and lhs != rhs:
                failure = {"n": n, "k": k}
    report.append(report_item("scaled-complete evaluation of partial Bell", "n <= 7", failure))

    return report


def _two_determinant_failure(a, b, reading: str):
    """Check the product-alphabet determinant identity in one of two readings."""

    def hat_h(vals, m):
        if m < 0:
            return Fraction(0)
        if reading == "corrected":
            return vals[m] / math.factorial(m + 1) if m < len(vals) else Fraction(0)
        # printed: entry a_{lam_i - i + j + 1} / (lam_i + j + 1)! is handled in cell()
        return vals[m] if m < len(vals) else Fraction(0)

    def d_value(n: int) -> Fraction:
        tot = Fraction(0)
        for lam in int_partitions(n - 1):
            size = len(lam)
            if reading == "corrected":
                m1 = [
                    [hat_h(a, lam[i] - (i + 1) + (j + 1)) for j in range(size)]
                    for i in range(size)
                ]
                m2 = [
                    [hat_h(b, lam[i] - (i + 1) + (j + 1)) for j in range(size)]
                    for i in range(size)
                ]
            else:
                def cell(vals, i, j):
                    idx = lam[i] - (i + 1) + (j + 1) + 1
                    if idx < 1 or idx > len(vals):
                        return Fraction(0)
                    return vals[idx - 1] / math.factorial(lam[i] + (j + 1) + 1)

                m1 = [[cell(a, i, j) for j in range(size)] for i in range(size)]
                m2 = [[cell(b, i, j) for j in range(size)] for i in range(size)]
            tot += _det(m1) * _det(m2)
        return math.factorial(n) * tot

    d = [d_value(n) for n in range(1, 7)]
    for k1, k2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        k = k1 * k2
        for n in range(k, 6):
            lhs = eval_partial_bell(d, n, k)
            tot = Fraction(0)
            for lam in int_partitions(n - k):
                size = len(lam)

                def bell_cell(vals, kk, i, j):
                    idx = lam[i] - (i + 1) + (j + 1) + kk
                    if idx < kk:
                        return Fraction(0)
                    return eval_partial_bell(vals, idx, kk) / math.factorial(idx)

                m1 = [[bell_cell(a, k1, i, j) for j in range(size)] for i in range(size)]
                m2 = [[bell_cell(b, k2, i, j) for j in range(size)] for i in range(size)]
                tot += (
                    (math.factorial(k1) * math.factorial(k2)) ** size
                    * _det(m1)
                    * _det(m2)
                )
            rhs = Fraction(math.factorial(n), math.factorial(k)) * tot
            if lhs != rhs:
                return {"k1": k1, "k2": k2, "n": n, "reading": reading}
    return None
