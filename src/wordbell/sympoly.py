"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a dense exponent tuple with trailing zeros trimmed, one slot per
indexed indeterminate x1, x2, ... (so `()` is the constant monomial).  The same
representation serves the classical Bell polynomials in the variables
a1, a2, ... and symmetric functions written in the generators c1, c2, ...
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .lincomb import _add_terms

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


class SparsePoly:
    """Sparse polynomial: mapping from exponent tuples to nonzero rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _add_terms({}, ((_trim(mono), coeff) for mono, coeff in items))

    @classmethod
    def _raw(cls, terms: dict) -> "SparsePoly":
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls._raw({})

    @classmethod
    def const(cls, value: Scalar) -> "SparsePoly":
        return cls._raw({(): value} if value else {})

    @classmethod
    def var(cls, index: int, exp: int = 1) -> "SparsePoly":
        """The monomial x_index**exp (indices start at 1)."""
        if index < 1:
            raise ValueError("variable indices start at 1")
        if exp == 0:
            return cls.const(1)
        mono = (0,) * (index - 1) + (exp,)
        return cls._raw({mono: 1})

    # -- inspection ----------------------------------------------------------

    def coeff(self, mono: Iterable[int]) -> Scalar:
        return self._terms.get(_trim(mono), 0)

    def items(self):
        return self._terms.items()

    def sorted_items(self):
        return sorted(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._terms:
            return "<SparsePoly 0>"
        bits = []
        for mono, coeff in self.sorted_items()[:6]:
            vars_ = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(mono)
                if e
            )
            bits.append(f"{coeff}{'*' + vars_ if vars_ else ''}")
        more = " + ..." if len(self._terms) > 6 else ""
        return "<SparsePoly " + " + ".join(bits) + more + ">"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly._raw(_add_terms(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return SparsePoly.zero()
            return SparsePoly._raw({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return SparsePoly._raw(_add_terms({}, (
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )))

    __rmul__ = __mul__

    # -- substitution --------------------------------------------------------

    def evaluate(self, value_of: Callable[[int], Scalar]) -> Scalar:
        """Evaluate numerically, substituting x_i -> value_of(i)."""
        total: Scalar = 0
        for mono, coeff in self._terms.items():
            term: Scalar = coeff
            for i, exp in enumerate(mono, start=1):
                if exp:
                    term *= Fraction(value_of(i)) ** exp
            total += term
        return total

    def substitute(self, image_of: Callable[[int], object], *, mul=None, one=None):
        """Substitute x_i -> image_of(i) in any commutative target algebra.

        ``mul`` multiplies two target values (default: operator `*`), ``one``
        is the target's multiplicative unit.  Scalar action uses `coeff * value`.
        """
        if mul is None:
            mul = lambda a, b: a * b
        if one is None:
            one = 1
        total = None
        for mono, coeff in self._terms.items():
            value = one
            for i, exp in enumerate(mono, start=1):
                img = image_of(i) if exp else None
                for _ in range(exp):
                    value = mul(value, img)
            value = coeff * value
            total = value if total is None else total + value
        if total is None:
            return 0 * one if isinstance(one, (int, Fraction)) else one * 0
        return total
