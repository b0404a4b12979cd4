"""Truncated power series in t over any coefficient ring, exact.

A series is a plain list ``[c0, c1, ..., cN]`` of coefficients from one ring:
Fractions by default, or LinComb elements of one basis: polynomials (the
SparsePoly subclass), the Psi basis or word polynomials.
A caller names the ring by its unit ``one`` (its zero is ``one * 0``) and,
for the products and powers, by its ``dot``: the sum of x y over a list of
nonzero coefficient pairs (x, y), by default with the ring's own ``*`` and
``+``.  The word ring's dot is ``realization.shuffle_sum``.  Every function
takes the truncation order explicitly and returns a list of length order+1.
The product, power, exponential and logarithm here are the only ones in
the package: the Bell polynomials of every algebra are [t^n] F(t)^k / k!
(``divided_power``, the one such step), the complete ones [t^n] exp F(t).

Every polynomial in a marker t is such a list, entry k the coefficient of
t^k.  That includes the word and noncommutative Bell polynomials, which
``lincomb._ladder`` builds as the t-graded operator power (t x + d)^n
applied to 1, and the triangular polynomials of ``munthekaas``.

``power`` needs a commutative ring, such as the rationals, polynomials or
word polynomials under the shuffle product (``mul`` does not).  It computes
F^k by left-to-right binary powering: F^1 = 1 F, then for each bit of k
after the leading one a square, and a product by F when the bit is set.
Its square multiplies each unordered pair of coefficients F_i F_j once.
Truncation rule of ``power``: for a base of valuation v (its lowest nonzero
degree), a term of degree d in F^e reaches at least degree d + (k - e) v in
F^k, so the partial power F^e, a square or a product by F, is kept only up
to degree order - (k - e) v.  The square of F^e to that degree of F^(2e)
reads F^e exactly up to its own kept degree, since F^e has valuation e v.

Composition and reversion back the alphabet operations of the
symmetric-function calculus and run over the rationals only.  An inverse
series is not among them: an alphabet's elementary values are the
exponential exp(sum_n (-1)^(n-1) c_n t^n).  ``combinatorics.count_by_type``
runs the exponential's recurrence on integers (the Euler transform), where
Fraction coefficients would cost about ten times as much.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import reduce
from itertools import starmap

Scalar = int | Fraction
Series = list


def pad(a: Sequence, order: int, zero=Fraction(0)) -> Series:
    """Copy of ``a`` padded with ``zero``/truncated to exactly order+1 coefficients."""
    out = list(a[: order + 1])
    out.extend([zero] * (order + 1 - len(out)))
    return out


def _ring_dot(pairs: list):
    """The default dot: the sum of x * y over the pairs, by the ring's own operators."""
    return reduce(operator.add, starmap(operator.mul, pairs))


def mul(a: Sequence, b: Sequence, order: int, one=Fraction(1), dot: Callable = _ring_dot) -> Series:
    """The product a b up to t^order: coefficient d is ``dot`` of the nonzero
    pairs (a_i, b_(d-i)), the zero of the ring when there are none."""
    a, b = a[: order + 1], b[: order + 1]
    out = []
    for d in range(order + 1):
        pairs = [(x, b[d - i]) for i, x in enumerate(a[: d + 1]) if x and d - i < len(b) and b[d - i]]
        out.append(dot(pairs) if pairs else one * 0)
    return out


def _square(a: Sequence, order: int, one, dot: Callable) -> Series:
    """a^2 up to t^order in a commutative ring: coefficient d is ``dot`` of
    the nonzero pairs (2 a_i, a_(d-i)) with i < d - i and, for even d, the
    pair (a_(d/2), a_(d/2)), so each unordered pair of coefficients is
    multiplied once."""
    a = a[: order + 1]
    doubled = [x * 2 for x in a[: (order + 1) // 2]]  # every i < d - i <= order
    out = []
    for d in range(order + 1):
        lower = range(max(0, d - len(a) + 1), (d + 1) // 2)
        pairs = [(doubled[i], a[d - i]) for i in lower if a[i] and a[d - i]]
        if d % 2 == 0 and d // 2 < len(a) and a[d // 2]:
            pairs.append((a[d // 2], a[d // 2]))
        out.append(dot(pairs) if pairs else one * 0)
    return out


def power(a: Sequence, k: int, order: int, one=Fraction(1), dot: Callable = _ring_dot) -> Series:
    """a^k up to t^order in a commutative ring, by left-to-right binary
    powering over ``dot``, each partial power truncated by the valuation
    rule of the module docstring.

    The first factor is a :func:`mul` of the unit by the base, so even a^1
    comes out in the ring's normal form.  A negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"power needs k >= 0, got {k}")
    base = a[: order + 1]
    v = next((i for i, c in enumerate(base) if c), None)
    if not k:
        return pad([one], order, one * 0)
    if v is None or k * v > order:
        return [one * 0] * (order + 1)
    e = 1  # result holds F^e up to degree order - (k - e) v
    result = mul([one], base, order - (k - e) * v, one, dot)
    for bit in bin(k)[3:]:  # the bits of k after the leading one
        e *= 2
        result = _square(result, order - (k - e) * v, one, dot)
        if bit == "1":
            e += 1
            result = mul(result, base, order - (k - e) * v, one, dot)
    return result


def divided_power(a: Sequence, k: int, order: int, one=Fraction(1), dot: Callable = _ring_dot) -> Series:
    """a^k / k! up to t^order in a commutative ring, zero for k < 0: the
    powers scaled by Fraction(1, k!), never divided, so ``one=1`` gets no floats."""
    if k < 0:
        return [one * 0] * (order + 1)
    powered = power(a, k, order, one, dot)
    if k < 2:
        return powered  # k! = 1
    scale = Fraction(1, math.factorial(k))
    return [c * scale for c in powered]


def exp(a: Sequence, order: int, one=Fraction(1)) -> Series:
    """exp of a series with zero constant term: m b_m = sum_j j a_j b_{m-j}."""
    a = pad(a, order, one * 0)
    if a[0]:
        raise ValueError("exp requires zero constant term")
    b = [one]
    for m in range(1, order + 1):
        acc = one * 0
        for j in range(1, m + 1):
            if a[j]:
                acc = acc + a[j] * b[m - j] * j
        b.append(acc * Fraction(1, m))
    return b


def log(a: Sequence, order: int, one=Fraction(1)) -> Series:
    """log of a series with constant term 1: m c_m = m a_m - sum_{j<m} j c_j a_{m-j}."""
    a = pad(a, order, one * 0)
    if a[0] != one:
        raise ValueError("log requires constant term 1")
    c = [one * 0]
    for m in range(1, order + 1):
        acc = one * 0
        for j in range(1, m):
            if c[j] and a[m - j]:
                acc = acc + c[j] * a[m - j] * j
        c.append(a[m] - acc * Fraction(1, m))
    return c


def compose(a: Sequence[Scalar], b: Sequence[Scalar], order: int) -> Series:
    """a(b(t)) for b with zero constant term (Horner evaluation)."""
    b = pad(b, order)
    if b[0]:
        raise ValueError("compose requires inner constant term 0")
    a = pad(a, order)
    result = [Fraction(0)] * (order + 1)
    for coeff in reversed(a):
        result = mul(result, b, order)
        result[0] += coeff
    return result


def reversion(a: Sequence[Scalar], order: int) -> Series:
    """Compositional inverse g with a(g(t)) = t; needs a0 = 0, a1 != 0."""
    a = pad(a, order)
    if a[0] or not a[1]:
        raise ValueError("reversion requires a0 = 0 and a1 != 0")
    g = [Fraction(0)] * (order + 1)
    if order >= 1:
        g[1] = 1 / Fraction(a[1])
    for m in range(2, order + 1):
        # With g known below degree m, [t^m] a(g) is a1*g[m] + error(lower g).
        err = compose(a, g, m)[m]
        g[m] = -err / a[1]
    return g
