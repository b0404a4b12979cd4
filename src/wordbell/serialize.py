"""Stable JSON forms for every value the command line emits.

Set partitions serialize as lists of blocks, colored set partitions as lists
of [block, color] pairs, words as lists of [alphabet, letter] pairs and
noncommutative words as plain integer lists: each is the key's sort key,
written by ``json``.  Rational coefficients are always decimal strings of
numerator and denominator, never floats, and terms are sorted by canonical
key order so output is byte-deterministic.
"""

from __future__ import annotations

from operator import itemgetter

from .combinatorics import (
    ColoredSetPartition,
    CyclePermutation,
    IdempotentEndofunction,
    Level2Partition,
    ListPartition,
    _PartitionKey,
)
from .lincomb import LinComb


def sort_key(key):
    """Total order on keys of one type, for deterministic term listings.

    A key maps to the nested tuples of its integer entries.  This is also
    its JSON form: ``json`` writes tuples as arrays."""
    if isinstance(key, _PartitionKey):
        return key.parts  # the blocks of an uncolored key
    if isinstance(key, ListPartition):
        return key.lists
    if isinstance(key, CyclePermutation):
        return key.cycles
    if isinstance(key, Level2Partition):
        return key.groups
    if isinstance(key, IdempotentEndofunction):
        return key.images
    if isinstance(key, tuple):
        if all(isinstance(v, int) for v in key):
            return key  # noncommutative word, or one letter of a word
        return tuple(sort_key(v) for v in key)  # word, tensor pair et al.
    raise TypeError(f"cannot serialize key of type {type(key).__name__}")


def _coeff_parts(c) -> tuple[str, str]:
    return str(c.numerator), str(c.denominator)


def lincomb_to_jsonable(x: LinComb, sequence: str | None = None) -> dict:
    if sequence is None:
        for key in x.keys():
            if isinstance(key, ColoredSetPartition):
                sequence = key.seq.spec_string()
                break
    terms = []
    # one sort key per term: it orders the terms and is their JSON form
    ranked = sorted(((sort_key(key), coeff) for key, coeff in x.items()), key=itemgetter(0))
    for rank, coeff in ranked:
        num, den = _coeff_parts(coeff)
        terms.append({"key": rank, "num": num, "den": den})
    return {"basis": x.basis, "sequence": sequence, "terms": terms}


def tpoly_to_jsonable(coeffs: list[LinComb], sequence: str | None = None) -> dict:
    """A t-polynomial, given as its series coefficient list, entry k that of t^k."""
    return {"coefficients": [lincomb_to_jsonable(c, sequence) for c in coeffs]}
