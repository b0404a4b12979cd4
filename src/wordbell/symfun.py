"""Commutative symmetric functions in the c-basis and virtual alphabets.

Sym is the free commutative algebra on c_1, c_2, ... (c_n carrying degree n),
related to the complete functions by the exponential of the generating
series.  A virtual alphabet is just a finite list of rational values for the
c_n up to a degree bound; every specialization morphism, alphabet operation
(sum, scale, product, composition, compositional inverse) and Schur function
evaluation is exact.

``inverse_closed_form`` implements the corrected reading of its source
formula, which failed cross-validation; ``test_alphabet_compose_and_inverse``
pins it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import series
from .bell import eval_partial_bell, seq_values
from .combinatorics import _Record
from .sympoly import SparsePoly


# ---------------------------------------------------------------------------
# h <-> c symbolically


def _generators(n: int) -> list[SparsePoly]:
    """The variables x_1, ..., x_n, the coefficients of sum_j x_j t^j."""
    return [SparsePoly.var(j) for j in range(1, n + 1)]


def h_from_c(n: int) -> SparsePoly:
    """h_n written in the generators c_1, ..., c_n: [t^n] exp(sum c_j t^j)."""
    one = SparsePoly.const(1)
    return series.exp([SparsePoly.zero()] + _generators(n), n, one)[n]


def c_from_h(n: int) -> SparsePoly:
    """c_n written in the complete functions h_1, ..., h_n: [t^n] log(sigma_t)."""
    one = SparsePoly.const(1)
    return series.log([one] + _generators(n), n, one)[n]


def h_k_part(n: int, k: int) -> SparsePoly:
    """The alpha^k component of h_n(alpha X), n >= 0: [t^n] (sum c_i t^i)^k / k!."""
    return series.divided_power([SparsePoly.zero()] + _generators(n), k, n, SparsePoly.const(1))[n]


# ---------------------------------------------------------------------------
# virtual alphabets


class VirtualAlphabet(_Record):
    """A specialization of Sym: the values c_1(X), ..., c_N(X)."""

    _FIELDS = ("c_values",)

    def __init__(self, c_values: tuple[Fraction, ...]):
        object.__setattr__(self, "c_values", c_values)

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

    def _exp_index(self, name: str, n: int) -> int:
        if not 0 <= n <= self.degree:
            raise ValueError(f"{name}_{n} needs 0 <= n <= the degree bound {self.degree}")
        return n

    def h(self, n: int) -> Fraction:
        return _exp_values(self.c_values)[self._exp_index("h", n)]

    def e(self, n: int) -> Fraction:
        # lambda_t = 1 / sigma_{-t} = exp(sum_n (-1)^(n-1) c_n t^n)
        return _exp_values(tuple((-1) ** (i - 1) * c for i, c in enumerate(self.c_values, 1)))[self._exp_index("e", n)]

    def truncate(self, degree: int) -> "VirtualAlphabet":
        if degree > self.degree:
            raise ValueError("cannot extend an alphabet")
        return VirtualAlphabet(self.c_values[:degree])


# identity for composition: sigma_t = 1, i.e. every c_n = 0
identity_alphabet = VirtualAlphabet.zero


@lru_cache(maxsize=None)
def _exp_values(c_values: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """The coefficients of exp(sum_n c_n t^n) up to t^len(c_values)."""
    return tuple(series.exp([Fraction(0), *c_values], len(c_values)))


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
    f = [Fraction(0)] + list(_exp_values(x.c_values[:n]))
    g = [Fraction(0)] + list(_exp_values(y.c_values[:n]))
    comp = series.compose(f, g[: n + 1], n + 1)
    h_new = comp[1:]
    return VirtualAlphabet.from_h(h_new[1:])


def alphabet_inverse(x: VirtualAlphabet) -> VirtualAlphabet:
    """The compositional inverse: sigma_t(X o X^<-1>) = 1, solved by series
    reversion of t sigma_t(X)."""
    n = x.degree
    f = [Fraction(0)] + list(_exp_values(x.c_values))
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


def hat_alphabet(a, degree: int) -> VirtualAlphabet:
    """The alphabet with h_i = a_{i+1}/(i+1)!; requires a_1 = 1."""
    value = seq_values(a)
    if value(1) != 1:
        raise ValueError("the hat alphabet needs a_1 = 1")
    hs = [value(i + 1) / math.factorial(i + 1) for i in range(1, degree + 1)]
    return VirtualAlphabet.from_h(hs)


# ---------------------------------------------------------------------------
# Schur functions


def _det(mat) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    size = len(mat)
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


def _jacobi_trudi(lam, entry) -> Fraction:
    """det[entry(lam_i - i + j)], the Jacobi-Trudi determinant of ``entry``."""
    size = len(lam)
    return _det([[entry(lam[i] - i + j) for j in range(size)] for i in range(size)])


def schur(lam, x: VirtualAlphabet) -> Fraction:
    """s_lambda(X) by the Jacobi-Trudi determinant of complete functions."""
    return _jacobi_trudi(tuple(lam), lambda m: x.h(m) if m >= 0 else Fraction(0))

