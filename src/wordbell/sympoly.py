"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a `LinComb` over monomials with the basis tag "Poly", so it
is stored, added, negated and scaled like every other algebra element.  A
monomial is a dense exponent tuple with trailing zeros trimmed, one slot per
indexed indeterminate x1, x2, ... (so `()` is the constant monomial).  The same
representation serves the classical Bell polynomials in the variables
a1, a2, ... and symmetric functions written in the generators c1, c2, ...
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from .lincomb import LinComb, _add_terms

POLY = "Poly"

Monomial = tuple[int, ...]
Scalar = int | Fraction


def _trim(exps: Iterable[int]) -> Monomial:
    es = list(exps)
    while es and es[-1] == 0:
        es.pop()
    return tuple(es)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


class SparsePoly(LinComb):
    """Sparse polynomial: a LinComb from trimmed exponent tuples to nonzero
    rationals, with the product of polynomials on top."""

    __slots__ = ()

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        super().__init__(POLY, ((_trim(mono), coeff) for mono, coeff in items))

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls._raw(POLY, {})

    @classmethod
    def const(cls, value: Scalar) -> "SparsePoly":
        return cls._raw(POLY, {(): value} if value else {})

    @classmethod
    def var(cls, index: int, exp: int = 1) -> "SparsePoly":
        """The monomial x_index**exp (indices start at 1)."""
        if index < 1:
            raise ValueError("variable indices start at 1")
        if exp == 0:
            return cls.const(1)
        return cls._raw(POLY, {(0,) * (index - 1) + (exp,): 1})

    def coeff(self, mono: Iterable[int]) -> Scalar:
        return self._terms.get(_trim(mono), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        return super().__eq__(other)

    def __mul__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return super().__mul__(other)  # a scalar
        return SparsePoly._raw(POLY, _add_terms({}, (
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )))

    # -- substitution --------------------------------------------------------

    def substitute(
        self, image_of: Callable[[int], object], *, mul: Callable = operator.mul, one=1
    ):
        """Substitute x_i -> image_of(i) in any commutative target algebra.

        ``mul`` multiplies two target values, ``one`` is the target's
        multiplicative unit.  Scalar action uses `coeff * value`.
        """
        total = one * 0
        for mono, coeff in self._terms.items():
            value = one
            for i, exp in enumerate(mono, start=1):
                img = image_of(i) if exp else None
                for _ in range(exp):
                    value = mul(value, img)
            total = total + coeff * value
        return total

    def evaluate(self, value_of: Callable[[int], Scalar]) -> Scalar:
        """Evaluate numerically, substituting x_i -> value_of(i)."""
        return self.substitute(lambda i: Fraction(value_of(i)))
