"""Truncated power series in t over any coefficient ring, exact.

A series is a plain list ``[c0, c1, ..., cN]`` of coefficients from one ring:
Fractions by default, or SparsePoly, Psi-basis LinComb or word polynomials.
A caller names the ring by its unit ``one`` (its zero is ``one * 0``) and,
for ``mul``, by the coefficient product ``times``; every function takes the
truncation order explicitly and returns a list of length order+1.  The
product, power, exponential and logarithm here are the only ones in the
package: the Bell polynomials of every algebra are [t^n] F(t)^k / k!, and
the complete ones [t^n] exp F(t).

Truncation rule of ``power``: for a base of valuation v (its lowest nonzero
degree), a term of degree d in F^j reaches at least degree d + (k - j) v in
F^k, so the j-th partial power is kept only up to degree order - (k - j) v.

Composition, reciprocal and reversion back the alphabet operations of the
symmetric-function calculus and run over the rationals only.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Sequence

Scalar = int | Fraction
Series = list


def pad(a: Sequence, order: int, zero=Fraction(0)) -> Series:
    """Copy of ``a`` padded with ``zero``/truncated to exactly order+1 coefficients."""
    out = list(a[: order + 1])
    out.extend([zero] * (order + 1 - len(out)))
    return out


def mul(
    a: Sequence, b: Sequence, order: int, one=Fraction(1), times: Callable = operator.mul
) -> Series:
    """The product a b up to t^order, multiplying coefficients by ``times``."""
    out = [one * 0] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if not ca:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            if cb:
                out[i + j] = out[i + j] + times(ca, cb)
    return out


def power(
    a: Sequence, k: int, order: int, one=Fraction(1), product: Callable | None = None
) -> Series:
    """a^k up to t^order by k products with the base, each partial power
    truncated by the valuation rule of the module docstring.

    ``product(x, y, top)`` multiplies two series up to t^top; the default is
    :func:`mul` with the ring's own ``*``.  The word ring passes its batched
    shuffle kernel.  The base usually has small supports, so k long-by-short
    products beat repeated squaring of ever-larger series.
    """
    if product is None:
        product = lambda x, y, top: mul(x, y, top, one)
    base = a[: order + 1]
    v = next((i for i, c in enumerate(base) if c), None)
    if k and (v is None or k * v > order):
        return [one * 0] * (order + 1)
    result = pad([one], order, one * 0)
    for j in range(1, k + 1):
        result = product(result, base, order - (k - j) * v)
    return result


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


def reciprocal(a: Sequence[Scalar], order: int) -> Series:
    a = pad(a, order)
    if not a[0]:
        raise ValueError("reciprocal requires nonzero constant term")
    b = [Fraction(0)] * (order + 1)
    b[0] = 1 / Fraction(a[0])
    for m in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, m + 1):
            if a[j]:
                acc += a[j] * b[m - j]
        b[m] = -acc / a[0]
    return b


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
