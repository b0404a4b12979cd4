"""Exact computer algebra for colored set partitions and word Bell polynomials.

The package is organized bottom-up:

* ``combinatorics`` — canonical index sets (set partitions, colored set
  partitions, list partitions, cycle decompositions, level-2 partitions,
  idempotent endofunctions), enumeration and bijections;
* ``hopf`` — products, coproducts, basis changes and antipode for the
  colored word symmetric functions and their graded dual;
* ``realization`` — word polynomial expansions inside the free algebra over
  indexed alphabets, shuffle machinery and virtual-alphabet specializations;
* ``bell`` — classical, word, colored and shuffle Bell polynomials plus the
  specialization morphisms tying them together;
* ``munthekaas`` — noncommutative Bell polynomials, the block-size morphism,
  Zinbiel half-shuffles and the Hessenberg expansion;
* ``symfun`` — symmetric functions in the c-basis, virtual alphabets and
  Schur functions;
* ``cli`` / ``verify`` — the batch front end and its verification suites,
  the classical identity suite among them, named in ``SUITES`` so that the
  front end offers them without loading ``verify``; the items that check
  ``bell``'s specialization morphisms are in ``verify.bell_suite``.

All arithmetic is exact (integers and fractions); nothing here floats.
"""

from .bell import complete_bell_poly, partial_bell_poly
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
    from_cycle_permutation,
    from_idempotent,
    from_level2,
    from_list_partition,
    matching_unions,
    set_partitions,
    splitting_count,
    standardize,
    to_cycle_permutation,
    to_idempotent,
    to_level2,
    to_list_partition,
)
from .hopf import complete_to_psi
from .lincomb import BasisError, LinComb
from .realization import specialize_complete
from .symfun import (
    VirtualAlphabet,
    alphabet_compose,
    alphabet_inverse,
    alphabet_product,
    alphabet_scale,
    alphabet_sum,
    c_from_h,
    h_from_c,
    h_k_part,
    inverse_closed_form,
    schur,
)
from .sympoly import SparsePoly

SUITES = ("hopf", "bell", "word", "mk", "appendix", "all")


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
    # index sets and enumeration
    "BELL",
    "FACTORIAL",
    "IDEMPOTENT",
    "ONES",
    "SHIFTED_FACTORIAL",
    "TREE",
    "ColoredSetPartition",
    "ColorSequence",
    "SetPartition",
    "bell_number",
    "colored_partitions",
    "colored_partitions_k",
    "count_by_type",
    "matching_unions",
    "set_partitions",
    "splitting_count",
    "standardize",
    # the bijections from colored set partitions at the named sequences
    "CyclePermutation",
    "IdempotentEndofunction",
    "Level2Partition",
    "ListPartition",
    "from_cycle_permutation",
    "from_idempotent",
    "from_level2",
    "from_list_partition",
    "to_cycle_permutation",
    "to_idempotent",
    "to_level2",
    "to_list_partition",
    # classical Bell polynomials in a1, a2, ...
    "complete_bell_poly",
    "partial_bell_poly",
    # Sym and virtual alphabets
    "VirtualAlphabet",
    "alphabet_compose",
    "alphabet_inverse",
    "alphabet_product",
    "alphabet_scale",
    "alphabet_sum",
    "c_from_h",
    "h_from_c",
    "h_k_part",
    "inverse_closed_form",
    "schur",
    # complete functions in WSym: in the Psi basis and in words
    "complete_to_psi",
    "specialize_complete",
    # containers and caches
    "BasisError",
    "LinComb",
    "SparsePoly",
    "clear_caches",
]
