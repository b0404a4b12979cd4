"""Exact linear combinations over hashable basis keys.

Every algebra in this package stores its elements the same way: a finite
mapping from canonical basis keys to nonzero rational coefficients, plus a
basis tag.  Colored word symmetric functions, word polynomials over indexed
alphabets and noncommutative polynomials are all `LinComb` instances over
different key types; the tag makes accidentally mixing bases a type error
instead of a silent merge.

Coefficients are exact: Python ints or `fractions.Fraction`, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

Scalar = int | Fraction


class BasisError(TypeError):
    """An operation received elements over incompatible bases."""


def tensor_tag(basis: str) -> str:
    """Basis tag used for two-fold tensors (pair keys)."""
    return basis + "⊗" + basis


def _add_terms(data: dict, pairs: Iterable) -> dict:
    """Add the (key, coeff) pairs into ``data`` and drop every key whose sum
    is 0; returns ``data``.  This is the one sparse update behind every
    LinComb and SparsePoly operation.  ``pop`` tolerates an absent key, so a
    zero coefficient needs no check of its own."""
    get = data.get
    for key, coeff in pairs:
        acc = get(key, 0) + coeff
        if acc:
            data[key] = acc
        else:
            data.pop(key, None)
    return data


class LinComb:
    """Finite rational linear combination of hashable keys, tagged by basis."""

    __slots__ = ("basis", "_terms")

    def __init__(self, basis: str, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.basis = basis
        self._terms = _add_terms({}, items)

    # -- construction -------------------------------------------------------

    @classmethod
    def _raw(cls, basis: str, terms: dict) -> "LinComb":
        # Trusted constructor: `terms` must already be zero-free.
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls, basis: str) -> "LinComb":
        return cls._raw(basis, {})

    @classmethod
    def term(cls, basis: str, key: Hashable, coeff: Scalar = 1) -> "LinComb":
        return cls._raw(basis, {key: coeff} if coeff else {})

    # -- inspection ----------------------------------------------------------

    def coeff(self, key: Hashable) -> Scalar:
        return self._terms.get(key, 0)

    def items(self):
        return self._terms.items()

    def keys(self):
        return self._terms.keys()

    def sorted_items(self, key: Callable = None):
        """Terms in a deterministic order (for printing and serialization)."""
        if key is None:
            key = lambda kv: kv[0]
        return sorted(self._terms.items(), key=key)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.basis == other.basis and self._terms == other._terms

    __hash__ = None  # mutable-dict backed; not hashable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._terms:
            return f"<LinComb {self.basis}: 0>"
        parts = [f"{c}*{k}" for k, c in list(self._terms.items())[:4]]
        more = " + ..." if len(self._terms) > 4 else ""
        return f"<LinComb {self.basis}: " + " + ".join(parts) + more + ">"

    # -- module structure ----------------------------------------------------

    def _check(self, other: "LinComb") -> None:
        if self.basis != other.basis:
            raise BasisError(
                f"cannot combine bases {self.basis!r} and {other.basis!r}"
            )

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        self._check(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        return LinComb._raw(self.basis, _add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb._raw(self.basis, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinComb.zero(self.basis)
        if scalar.denominator == 1:  # an int, or an integral Fraction
            scalar = scalar.numerator
            return LinComb._raw(self.basis, {k: c * scalar for k, c in self._terms.items()})
        # a proper fraction: store each product as int when it is one
        out = {}
        for k, c in self._terms.items():
            v = c * scalar
            out[k] = v.numerator if v.denominator == 1 else v
        return LinComb._raw(self.basis, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def retag(self, basis: str) -> "LinComb":
        """Same coefficients, different basis tag (explicit conversion only)."""
        return LinComb._raw(basis, dict(self._terms))


class TPoly:
    """Polynomial in a formal marker t whose coefficients are LinComb values.

    Trailing zero coefficients are trimmed, so ``degree`` is exact.
    """

    __slots__ = ("zero", "coeffs")

    def __init__(self, zero: LinComb, coeffs: Iterable[LinComb] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.zero = zero
        self.coeffs = tuple(cs)

    def coeff(self, k: int) -> LinComb:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.zero

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at_one(self) -> LinComb:
        """Evaluate at t = 1 (sum of all coefficients)."""
        total = self.zero
        for c in self.coeffs:
            total = total + c
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TPoly degree {self.degree}>"


def _ladder(one: LinComb, append: Callable, lower: Callable, n: int) -> TPoly:
    """``one`` acted on n times by (t append + lower), the t-grading kept:
    each step maps the coefficients c to c'[k] = append(c[k-1]) + lower(c[k]).

    The recursion behind both the word Bell and the noncommutative Bell
    polynomials.  It stays private: the benchmark's tracer wraps public
    functions only, so its time is charged to those two callers."""
    coeffs = [one]
    for _ in range(n):
        nxt = [lower(coeffs[0])]
        for k in range(1, len(coeffs) + 1):
            term = append(coeffs[k - 1])
            if k < len(coeffs):
                term = term + lower(coeffs[k])
            nxt.append(term)
        coeffs = nxt
    return TPoly(one * 0, coeffs)
