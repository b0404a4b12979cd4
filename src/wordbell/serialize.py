"""Stable JSON forms for every value the command line emits.

Set partitions serialize as lists of blocks, colored set partitions as lists
of [block, color] pairs, words as lists of [alphabet, letter] pairs and
noncommutative words as plain integer lists.  Rational coefficients are
always decimal strings of numerator and denominator, never floats, and terms
are sorted by canonical key order so output is byte-deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import (
    ColoredSetPartition,
    CyclePermutation,
    IdempotentEndofunction,
    Level2Partition,
    ListPartition,
    SetPartition,
)
from .lincomb import LinComb, TPoly


def key_to_jsonable(key):
    if isinstance(key, SetPartition):
        return [list(b) for b in key.blocks]
    if isinstance(key, ColoredSetPartition):
        return [[list(b), c] for b, c in key.parts]
    if isinstance(key, ListPartition):
        return [list(l) for l in key.lists]
    if isinstance(key, CyclePermutation):
        return [list(c) for c in key.cycles]
    if isinstance(key, Level2Partition):
        return [[list(b) for b in g] for g in key.groups]
    if isinstance(key, IdempotentEndofunction):
        return list(key.images)
    if isinstance(key, tuple):
        if all(isinstance(v, int) for v in key):
            return list(key)  # noncommutative word
        if all(isinstance(v, tuple) and len(v) == 2 for v in key):
            return [list(v) for v in key]  # word over indexed alphabets
        return [key_to_jsonable(v) for v in key]  # tensor pair et al.
    raise TypeError(f"cannot serialize key of type {type(key).__name__}")


def sort_key(key):
    """Total order on keys of one type, for deterministic term listings."""
    if isinstance(key, SetPartition):
        return key.blocks
    if isinstance(key, ColoredSetPartition):
        return key.parts
    if isinstance(key, (ListPartition,)):
        return key.lists
    if isinstance(key, CyclePermutation):
        return key.cycles
    if isinstance(key, Level2Partition):
        return key.groups
    if isinstance(key, IdempotentEndofunction):
        return key.images
    if isinstance(key, tuple):
        if all(isinstance(v, int) for v in key):
            return key
        return tuple(sort_key(v) for v in key)
    return key


def _coeff_parts(c) -> tuple[str, str]:
    f = Fraction(c)
    return str(f.numerator), str(f.denominator)


def lincomb_to_jsonable(x: LinComb, sequence: str | None = None) -> dict:
    if sequence is None:
        for key in x.keys():
            if isinstance(key, ColoredSetPartition):
                sequence = key.seq.spec_string()
                break
    terms = []
    for key, coeff in sorted(x.items(), key=lambda kv: sort_key(kv[0])):
        num, den = _coeff_parts(coeff)
        terms.append({"key": key_to_jsonable(key), "num": num, "den": den})
    return {"basis": x.basis, "sequence": sequence, "terms": terms}


def tpoly_to_jsonable(p: TPoly, sequence: str | None = None) -> dict:
    return {
        "coefficients": [
            lincomb_to_jsonable(c, sequence) for c in p.coeffs
        ]
    }
