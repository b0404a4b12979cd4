"""Exact computer algebra for colored set partitions and word Bell polynomials.

The package is organized bottom-up:

* ``combinatorics`` — canonical index sets (set partitions, colored set
  partitions, list partitions, cycle decompositions, level-2 partitions,
  idempotent endofunctions), enumeration and bijections;
* ``hopf`` — products, coproducts, basis changes, duality and antipode for
  the colored word symmetric functions and their graded dual;
* ``realization`` — word polynomial expansions inside the free algebra over
  indexed alphabets, shuffle machinery and virtual-alphabet specializations;
* ``bell`` — classical, word, colored and shuffle Bell polynomials plus the
  specialization morphisms tying them together;
* ``munthekaas`` — noncommutative Bell polynomials, the block-size morphism,
  Zinbiel half-shuffles and the Hessenberg expansion;
* ``symfun`` — symmetric functions in the c-basis, virtual alphabets and the
  classical identity suite;
* ``cli`` / ``verify`` — the batch front end and its verification suites.

All arithmetic is exact (integers and fractions); nothing here floats.
"""

from .combinatorics import (
    BELL,
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    TREE,
    ColoredSetPartition,
    ColorSequence,
    CyclePermutation,
    IdempotentEndofunction,
    Level2Partition,
    ListPartition,
    SetPartition,
    bell_number,
    colored_partitions,
    colored_partitions_k,
    count_by_type,
    matching_unions,
    set_partitions,
    splitting_count,
    standardize,
)
from .lincomb import BasisError, LinComb
from .sympoly import SparsePoly


def clear_caches() -> None:
    """Empty every memo the package keeps, as in a fresh process: the eight
    ``lru_cache`` tables below and ``realization._COMPLETE_SERIES``.  Values
    with a closed form are computed, not memoized."""
    from . import bell, combinatorics, hopf, realization, symfun

    for cached in (
        combinatorics.bell_number,
        combinatorics.int_partitions,
        combinatorics._interleave_gather,
        combinatorics.set_partitions,
        hopf._antipode_key,
        bell._mixed_bell_series_cached,
        symfun._h_values,
        symfun._e_values,
    ):
        cached.cache_clear()
    realization._COMPLETE_SERIES.clear()

__all__ = [
    "BELL",
    "FACTORIAL",
    "IDEMPOTENT",
    "ONES",
    "SHIFTED_FACTORIAL",
    "TREE",
    "BasisError",
    "ColoredSetPartition",
    "ColorSequence",
    "CyclePermutation",
    "IdempotentEndofunction",
    "Level2Partition",
    "LinComb",
    "ListPartition",
    "SetPartition",
    "SparsePoly",
    "bell_number",
    "clear_caches",
    "colored_partitions",
    "colored_partitions_k",
    "count_by_type",
    "matching_unions",
    "set_partitions",
    "splitting_count",
    "standardize",
]
