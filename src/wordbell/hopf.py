"""Hopf operations for colored word symmetric functions and their graded dual.

The algebra side (basis Phi) multiplies by shifted union of keys and
comultiplies by splitting parts in all ways; the dual side (basis Psi)
multiplies by interleaving supports and comultiplies by deconcatenation.
Keys may be plain set partitions (the uncolored case) or colored set
partitions over any color sequence; basis tags keep the three bases
Phi / Psi / M apart, and tensors carry pair keys.  The complete functions
S_pi are not a basis tag of their own: ``complete_to_psi`` writes S_pi in
the Psi basis.

The Phi antipode is an anti-morphism, S(xy) = S(y) S(x), and every key is
the shifted union of its atoms, the keys that no split point divides; so a
key that splits gets the product of its factors' antipodes in reverse order,
and only an atom runs the graded recursion over its coproduct.  ``antipodes``
reads those coproducts from a table the caller already built, ``antipode``
computes the ones it needs; neither keeps anything between calls.

All coefficients are exact rationals; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from itertools import chain

from .combinatorics import (
    ColoredSetPartition,
    ColorSequence,
    SetPartition,
    coarsenings,
    interleave_keys,
    part_bipartitions,
    refinements,
)
from .lincomb import BasisError, LinComb, tensor_tag

PHI = "Phi"
PSI = "Psi"
MONOMIAL = "M"


def _require(x: LinComb, basis: str) -> None:
    if x.basis != basis:
        raise BasisError(f"expected basis {basis!r}, got {x.basis!r}")


def phi_elem(key) -> LinComb:
    return LinComb.term(PHI, key)


def psi_elem(key) -> LinComb:
    return LinComb.term(PSI, key)


def empty_key(seq: ColorSequence | None = None):
    """The size-0 key: uncolored by default, colored over ``seq`` if given."""
    return SetPartition() if seq is None else ColoredSetPartition.empty(seq)


def one(basis: str = PHI, seq: ColorSequence | None = None) -> LinComb:
    return LinComb.term(basis, empty_key(seq))


# ---------------------------------------------------------------------------
# products and coproducts


def phi_product(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of the shifted union of keys."""
    _require(x, PHI)
    _require(y, PHI)
    return LinComb(PHI, (
        (kx.shifted_union(ky), cx * cy) for kx, cx in x.items() for ky, cy in y.items()
    ))


def phi_coproduct(x: LinComb) -> LinComb:
    """Sum over complementary standardized sub-partitions (tensor output)."""
    _require(x, PHI)
    return LinComb(tensor_tag(PHI), (
        (pair, c) for key, c in x.items() for pair in part_bipartitions(key)
    ))


def psi_product(x: LinComb, y: LinComb) -> LinComb:
    """Dual product: sum over support interleavings, with multiplicities."""
    _require(x, PSI)
    _require(y, PSI)
    return LinComb(PSI, (
        (key, cx * cy)
        for kx, cx in x.items()
        for ky, cy in y.items()
        for key in interleave_keys(kx, ky)
    ))


def psi_coproduct(x: LinComb) -> LinComb:
    """Deconcatenation over all prefix/suffix splits of the support."""
    _require(x, PSI)
    splits = ((key.split_at(j), c) for key, c in x.items() for j in range(key.size + 1))
    return LinComb(tensor_tag(PSI), ((split, c) for split, c in splits if split is not None))


def tensor_multiply(s: LinComb, t: LinComb, product) -> LinComb:
    """Componentwise product (a(x)b)(c(x)d) = ac (x) bd of two tensors.

    ``product(x, y)`` multiplies two basis keys, not two elements, and returns
    their product as a LinComb of the tensors' base; it is called once for
    each leg of each pair of terms of ``s`` and ``t``.
    """
    if s.basis != t.basis:
        raise BasisError("tensor bases differ")
    t_terms = t.items()
    return LinComb(s.basis, (
        ((kl, kr), coeff * cl * cr)
        for (a, b), c1 in s.items()
        for (c, d), c2 in t_terms
        for left, right, coeff in ((product(a, c).items(), product(b, d).items(), c1 * c2),)
        for kl, cl in left
        for kr, cr in right
    ))


def tensor_swap(t: LinComb) -> LinComb:
    return LinComb._raw(t.basis, {(b, a): c for (a, b), c in t.items()})


# ---------------------------------------------------------------------------
# basis changes for the uncolored specialization


def _require_uncolored(x: LinComb) -> None:
    for key in x.keys():
        if not isinstance(key, SetPartition):
            raise BasisError("this basis change is defined on uncolored keys only")


def phi_to_monomial(x: LinComb) -> LinComb:
    """Expand Phi in word monomial functions: Phi_pi = sum of M over coarser."""
    _require(x, PHI)
    _require_uncolored(x)
    return LinComb(MONOMIAL, ((q, c) for key, c in x.items() for q in coarsenings(key)))


def _moebius(pi: SetPartition, sigma: SetPartition) -> int:
    # mu(pi, sigma) for pi <= sigma: a block of sigma that merges j blocks of
    # pi, counted by their least elements, contributes (-1)^(j-1) (j-1)!.
    firsts = {b[0] for b in pi.blocks}
    return math.prod(
        (-1) ** (j - 1) * math.factorial(j - 1)
        for j in (sum(x in firsts for x in block) for block in sigma.blocks)
    )


def monomial_to_phi(x: LinComb) -> LinComb:
    """Inverse basis change, by Moebius inversion on the set-partition lattice.

    M_pi = sum over sigma >= pi of mu(pi, sigma) Phi_sigma, where mu is the
    product over the blocks of sigma of (-1)^(j-1) (j-1)!, j the number of
    blocks of pi merged into that block.
    """
    _require(x, MONOMIAL)
    _require_uncolored(x)
    return LinComb(PHI, (
        (q, c * _moebius(key, q)) for key, c in x.items() for q in coarsenings(key)
    ))


def complete_to_psi(pi: SetPartition) -> LinComb:
    """S_pi as a sum of Psi over all refinements of pi."""
    return LinComb._raw(PSI, {q: 1 for q in refinements(pi)})


# ---------------------------------------------------------------------------
# antipode


def _first_split(key):
    """The two factors of ``key`` at its smallest split point, or None for an atom.

    A split point j, 0 < j < size, is one that no block straddles; the key is
    then the shifted union of the two halves.
    """
    for j in range(1, key.size):
        split = key.split_at(j)
        if split is not None:
            return split
    return None


def _antipode_of(key, coproduct_of, memo: dict) -> LinComb:
    """S(Phi_key), built from keys alone by shifted unions and stored in ``memo``.

    A key that splits into left and right gets S(right) S(left), the
    anti-morphism rule; an atom gets the graded recursion over
    ``coproduct_of(key)``, its Phi coproduct, so nothing is enumerated here.
    """
    s = memo.get(key)
    if s is not None:
        return s
    split = _first_split(key)
    if key.size == 0:
        s = phi_elem(key)
    elif split is not None:
        left, right = split
        s_left = _antipode_of(left, coproduct_of, memo).items()
        s = LinComb(PHI, (
            (kr.shifted_union(kl), cr * cl)
            for kr, cr in _antipode_of(right, coproduct_of, memo).items()
            for kl, cl in s_left
        ))
    else:
        # an atom: S(x) = -x - sum m S(x1) x2 over the splittings (x1, x2) of
        # multiplicity m with both halves nonempty, each product with the key
        # x2 a shifted union
        s = LinComb(PHI, chain([(key, -1)], (
            (k.shifted_union(right), -c * m)
            for (left, right), m in coproduct_of(key).items()
            if left.size and right.size
            for k, c in _antipode_of(left, coproduct_of, memo).items()
        )))
    memo[key] = s
    return s


def antipodes(coproducts: dict) -> dict:
    """S(Phi_key) for every key of ``coproducts``, a {key: Phi coproduct}
    table that also holds every key of smaller size over the same colors.

    Each atom reads its coproduct from the table; the values live as long as
    the returned dict.
    """
    memo = {}
    return {key: _antipode_of(key, coproducts.__getitem__, memo) for key in coproducts}


def antipode(x: LinComb) -> LinComb:
    """Antipode of the Phi basis.

    S is an anti-morphism over the atoms: S(Phi_pi) is the product of the
    antipodes of pi's atoms in reverse order, and only an atom runs the
    graded connected recursion S(x) = -sum S(x1) x2 over its Phi coproduct,
    computed once per call.  Nothing is kept between calls.
    """
    _require(x, PHI)
    memo = {}
    coproduct_of = lambda key: phi_coproduct(phi_elem(key))
    return LinComb(PHI, (
        (k, c * d) for key, c in x.items() for k, d in _antipode_of(key, coproduct_of, memo).items()
    ))
