"""Stable JSON forms for every value the command line emits.

Set partitions serialize as lists of blocks, colored set partitions as lists
of [block, color] pairs, words as lists of [alphabet, letter] pairs and
noncommutative words as plain integer lists: each is the key's sort key,
written by ``json``.  Rational coefficients are always decimal strings of
numerator and denominator, never floats, and terms are sorted by canonical
key order so output is byte-deterministic.

A word and a noncommutative word are their own sort keys: each is emitted as
the nested tuples it already is, not rebuilt letter by letter.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from .combinatorics import _PartitionKey
from .lincomb import LinComb


def sort_key(key):
    """Total order on keys of one type, for deterministic term listings.

    A key maps to the nested tuples of its integer entries.  This is also
    its JSON form: ``json`` writes tuples as arrays."""
    if isinstance(key, _PartitionKey):
        return key.parts  # the blocks of an uncolored key
    if isinstance(key, tuple):
        if all(map(isinstance, key, repeat(int))):
            return key  # noncommutative word, or one letter of a word
        letters = all(map(isinstance, key, repeat(tuple)))
        if letters and all(map(isinstance, chain.from_iterable(key), repeat(int))):
            return key  # word: a tuple of letters
        return tuple(sort_key(v) for v in key)  # tensor pair et al.
    raise TypeError(f"cannot serialize key of type {type(key).__name__}")


def lincomb_to_jsonable(x: LinComb, sequence: str | None = None) -> dict:
    """The terms of ``x`` in key order; ``sequence`` is the color sequence's
    spec string when the keys are colored, else None."""
    # one sort key per term: it orders the terms and is their JSON form
    ranked = sorted(((sort_key(key), coeff) for key, coeff in x.items()), key=itemgetter(0))
    terms = [{"key": rank, "num": str(c.numerator), "den": str(c.denominator)} for rank, c in ranked]
    return {"basis": x.basis, "sequence": sequence, "terms": terms}


def tpoly_to_jsonable(coeffs: list[LinComb]) -> dict:
    """A t-polynomial, given as its series coefficient list, entry k that of t^k."""
    return {"coefficients": [lincomb_to_jsonable(c) for c in coeffs]}
