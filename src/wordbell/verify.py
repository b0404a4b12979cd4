"""Machine-readable verification suites.

Each suite replays a family of identities at a configurable size bound and
returns a list of report items {identity, range, status, counterexample};
the command line wraps these in JSON and turns failures into exit codes.
Oracles used here (Stirling closed forms, brute-force enumerations) are
deliberately independent of the code paths they validate.

Every item is a counterexample stream: a generator, or a list for an item
with one case, that yields one dict per failing case in case order.
``bell.report_item`` reads only the first dict, so a failing item runs no
case after its first counterexample.  Random data that a later item depends
on is drawn before the stream, in a fixed order, so a failing item cannot
shift the data of the items after it.

Each value is built once and read by every item that needs it:

* the Hopf suite builds, per color sequence, one table of basis elements
  with their Phi and Psi coproducts and Phi antipodes, and one memo per side
  of key products x·y, filled on first use.  Every item multiplies through
  that memo.  The bialgebra item hands it to ``hopf.tensor_multiply``, which
  multiplies tensors on keys, and reads Delta(xy) by linearity as the sum of
  (xy)_z Delta(z) over the table; duality reads it on key pairs too.  Its
  bilinear extension serves the items that multiply elements with more than
  one term, associativity and the antipode axiom.  Stored values keep their
  keys as the enumerated key objects, so equal keys are one object;
* the word suite expands each (key, L) once;
* the Bell and MK suites build one ladder polynomial per degree.

Two Bell-suite items check what the command line serves against the
definition it replaces:

* "word Bell polynomials enumerate partitions by blocks": the enumerated
  ``bell.word_partial_bell`` and ``word_complete_bell`` against the ladder
  ``bell.word_bell_tpoly`` and its sum over t;
* "colored dual Bell polynomials enumerate colored partitions": the
  enumerated ``bell.colored_psi_bell`` against [t^n] F^k / k!, computed by
  one series-power chain whose dot sums ``hopf.psi_product`` terms.

The Bell suite also checks the specialization morphisms of ``bell``: that
gamma beta_a alpha sends h_n to A_n(a)/n! for each default sequence, by the
weights and through the colored keys, and for two random rational sequences
drawn from their own ``random.Random(seed)``; and that gamma is
multiplicative on pairs of colored keys.  These items read the morphisms on
``bell`` and the product on ``hopf`` at call time, so a patched module is
what they check.

The word item "shuffle realization of the dual product" shuffles the word
expansions of Psi_x and Psi_y, and expands Psi_x Psi_y read off the Phi
coproduct by duality (Psi_z counts the splittings of z into (x, y)), since
``hopf.psi_product`` shares the shuffle's interleaving kernel.  It keeps
L = k_x + k_y letters, the block counts of x and y: both sides are
symmetric in the letters, and no word of either side uses more letters than
x and y have blocks together, so the truncation is faithful.

The appendix suite replays the classical partial-Bell identities through
the ``symfun`` calculus with random rational data.  Where a source formula
failed cross-validation, the corrected reading is checked; only the
two-determinant item reports which reading runs.

The products and coproducts are looked up on the ``hopf`` module per suite
call, so a patched module is what gets checked.  An identity that holds on
both sides is checked by one loop over the (Phi, Psi) sides, inside the
loops over keys, so for each case Phi is checked before Psi and the first
counterexample is the first case that fails on either side.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, product

from . import SUITES, bell, hopf, munthekaas, realization, series
from .bell import eval_partial_bell, report_item
from .combinatorics import (
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    SetPartition,
    colored_partitions,
    int_partitions,
    part_bipartitions,
    refines,
    set_partitions,
)
from .lincomb import LinComb, _lincomb_sum, tensor_tag
from .symfun import VirtualAlphabet, _det, _jacobi_trudi, alphabet_scale, h_from_c, hat_alphabet

DEFAULT_SEQUENCES = (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT)


def _stirling2(n: int, k: int) -> int:
    """S(n, k) by inclusion-exclusion: (1/k!) sum_j (-1)^j C(k, j) (k - j)^n."""
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def _stirling1_unsigned(n: int, k: int) -> int:
    """c(n, k) as [x^k] of the rising factorial x(x + 1)...(x + n - 1)."""
    row = [1]  # the coefficients of the empty product
    for m in range(n):
        # multiply by (x + m)
        row = [m * a + b for a, b in zip(row + [0], [0] + row)]
    return row[k] if 0 <= k < len(row) else 0


# ---------------------------------------------------------------------------
# hopf


def _interned(x: LinComb, canon: dict) -> LinComb:
    """``x`` with each key, or each leg of a pair key, replaced by the equal
    object of ``canon`` (a {key: key} map); a key outside it is kept.  Equal
    keys then share one object, and later dict hits compare by identity."""
    get = canon.get
    return LinComb._raw(x.basis, {
        (get(k[0], k[0]), get(k[1], k[1])) if type(k) is tuple else get(k, k): c for k, c in x.items()
    })


def _key_products(tag: str, product, canon: dict):
    """``product`` on pairs of basis keys of ``tag``.

    Each key product is computed once, on first use, by ``product`` on the
    two basis elements, and stored interned in ``canon``."""
    memo = {}

    def key_product(x, y):
        xy = memo.get((x, y))
        if xy is None:
            xy = memo[(x, y)] = _interned(product(LinComb.term(tag, x), LinComb.term(tag, y)), canon)
        return xy

    return key_product


def _bilinear(key_product):
    """The product of elements that extends ``key_product`` bilinearly."""

    def times(u: LinComb, v: LinComb) -> LinComb:
        if len(u) == 1 and len(v) == 1:
            ((x, cu),), ((y, cv),) = u.items(), v.items()
            xy = key_product(x, y)
            return xy if cu * cv == 1 else xy * (cu * cv)
        return LinComb(u.basis, (
            (k, cu * cv * c)
            for x, cu in u.items()
            for y, cv in v.items()
            for k, c in key_product(x, y).items()
        ))

    return times


def hopf_suite(max_n: int = 4, sequences=DEFAULT_SEQUENCES) -> list[dict]:
    report = []
    # looked up per call, so a patched hopf module is what gets checked
    sides = (
        (hopf.PHI, hopf.phi_product, hopf.phi_coproduct),
        (hopf.PSI, hopf.psi_product, hopf.psi_coproduct),
    )
    for seq in sequences:
        label = seq.spec_string()
        keys = {n: colored_partitions(seq, n) for n in range(max_n + 1)}
        canon = {a: a for n in keys for a in keys[n]}
        elem = {tag: {a: LinComb.term(tag, a) for a in canon} for tag, _, _ in sides}
        cop = {tag: {a: _interned(coproduct(e), canon) for a, e in elem[tag].items()} for tag, _, coproduct in sides}
        key_products = {tag: _key_products(tag, product, canon) for tag, product, _ in sides}
        times = {tag: _bilinear(key_product) for tag, key_product in key_products.items()}

        def delta(tag, coproduct, z):
            # Delta(z) from the table; a key outside it is computed once, on first use
            dz = cop[tag].get(z)
            if dz is None:
                dz = cop[tag][z] = _interned(coproduct(LinComb.term(tag, z)), canon)
            return dz

        def failures():
            for i in range(1, max_n + 1):
                for j in range(1, max_n - i + 1):
                    for a, b in product(keys[i], keys[j]):
                        for tag, _, coproduct in sides:
                            # Delta(ab) by linearity: the sum of (ab)_z Delta(z)
                            lhs = LinComb(tensor_tag(tag), (
                                (pair, c * d)
                                for z, c in key_products[tag](a, b).items()
                                for pair, d in delta(tag, coproduct, z).items()
                            ))
                            rhs = hopf.tensor_multiply(cop[tag][a], cop[tag][b], key_products[tag])
                            if lhs != rhs:
                                yield {"left": str(a), "right": str(b), "side": tag}

        report.append(report_item(f"bialgebra compatibility [{label}]", f"|x|+|y| <= {max_n}", failures()))

        times_psi, psi = times[hopf.PSI], elem[hopf.PSI]
        failures = (
            {"triple": (str(a), str(b), str(c))}
            for i in range(1, max_n + 1)
            for j in range(1, max_n - i)
            for k in range(1, max_n - i - j + 1)
            for a, b, c in product(keys[i], keys[j], keys[k])
            if times_psi(times_psi(psi[a], psi[b]), psi[c]) != times_psi(psi[a], times_psi(psi[b], psi[c]))
        )
        report.append(report_item(f"product associativity [{label}]", f"total size <= {max_n}", failures))

        def failures():
            for n in range(max_n + 1):
                for a in keys[n]:
                    if hopf.tensor_swap(cop[hopf.PHI][a]) != cop[hopf.PHI][a]:
                        yield {"key": str(a), "side": "Phi cocommutativity"}
                    for tag, _, _ in sides:
                        # counit: (eps x id) Delta = id on both sides
                        left = LinComb(tag, ((r, c) for (l, r), c in cop[tag][a].items() if l.size == 0))
                        if left != elem[tag][a]:
                            yield {"key": str(a), "side": f"{tag} counit"}

        report.append(report_item(f"cocommutativity and counit [{label}]", f"n <= {max_n}", failures()))

        phi = elem[hopf.PHI]
        anti = {a: _interned(hopf.antipode(e), canon) for a, e in phi.items()}

        def failures():
            for n in range(max_n + 1):
                for a in keys[n]:
                    # the sum of x1 S(x2) over the Phi coproduct: the side that the
                    # antipode's recursion, which solves sum S(x1) x2 = eps, does not impose
                    total = LinComb(hopf.PHI, (
                        (k, c * d)
                        for (l, r), c in cop[hopf.PHI][a].items()
                        for k, d in times[hopf.PHI](phi[l], anti[r]).items()
                    ))
                    expect = hopf.one(seq=a.seq) if n == 0 else LinComb.zero(hopf.PHI)
                    if total != expect:
                        yield {"key": str(a)}

        report.append(report_item(f"antipode axiom [{label}]", f"n <= {max_n}", failures()))

        # the Phi coproduct table transposed: column (x, y) holds <x (x) y, Dz> for every z
        columns = {}
        for z in canon:
            for pair, c in cop[hopf.PHI][z].items():
                columns.setdefault(pair, {})[z] = c

        def failures():
            for i in range(1, max_n):
                for j in range(1, max_n - i + 1):
                    n = i + j
                    for a, b in product(keys[i], keys[j]):
                        prod = key_products[hopf.PSI](a, b)
                        column = LinComb(hopf.PSI, columns.get((a, b), {}))
                        if prod != column:
                            # the first z of keys[n] that differs, else a key outside keys[n]
                            z = next(z for z in chain(keys[n], prod.keys()) if prod.coeff(z) != column.coeff(z))
                            yield {"x": str(a), "y": str(b), "z": str(z)}

        report.append(
            report_item(f"duality adjointness <xy,z> = <x(x)y, Dz> [{label}]", f"|x|+|y| <= {max_n}", failures())
        )

        failures = (
            {"n": n, "dim": len(keys[n])} for n in range(max_n + 1) if len(keys[n]) != bell.eval_complete_bell(seq, n)
        )
        report.append(report_item(f"graded dimensions equal A_n(a) [{label}]", f"n <= {max_n}", failures))

    def failures():
        for n in range(min(max_n, 4) + 1):
            for p in set_partitions(n):
                expanded = hopf.phi_to_monomial(hopf.phi_elem(p))
                if expanded.coeff(p) != 1:
                    yield {"pi": str(p), "reason": "diagonal not 1"}
                if any(not refines(p, q) for q in expanded.keys()):
                    yield {"pi": str(p), "reason": "support not coarser"}
                if hopf.monomial_to_phi(expanded) != hopf.phi_elem(p):
                    yield {"pi": str(p), "reason": "round trip"}

    report.append(report_item("monomial change of basis is unitriangular", f"n <= {min(max_n, 4)}", failures()))
    return report


# ---------------------------------------------------------------------------
# bell


def _colored_psi_bell_table(seq, top: int) -> list[list[LinComb]]:
    """The normalized colored Bell polynomials by their definition: entry
    [k][n] is [t^n] F^k / k! for F = sum_m psi_atom(seq, m) t^m and all
    n, k <= top.  One power chain serves every k: F^k is F^(k-1) F, a
    series product whose dot sums ``hopf.psi_product`` terms."""
    unit = hopf.one(hopf.PSI, seq)
    generators = [LinComb.zero(hopf.PSI)] + [bell.psi_atom(seq, m) for m in range(1, top + 1)]
    psi_dot = lambda pairs: _lincomb_sum(hopf.PSI, (hopf.psi_product(x, y) for x, y in pairs))
    power = series.pad([unit], top, unit * 0)
    table = [power]
    for k in range(1, top + 1):
        power = series.mul(power, generators, top, unit, psi_dot)
        table.append([c / math.factorial(k) for c in power])
    return table


def bell_suite(max_n: int = 6, seed: int = 0) -> list[dict]:
    report = []
    rng = random.Random(seed)
    classical_max = min(max_n + 2, 8)

    def failures():
        for n in range(classical_max + 1):
            for k in range(n + 1):
                if bell.eval_partial_bell(ONES, n, k) != _stirling2(n, k):
                    yield {"kind": "stirling2", "n": n, "k": k}
                if bell.eval_partial_bell(SHIFTED_FACTORIAL, n, k) != _stirling1_unsigned(n, k):
                    yield {"kind": "stirling1", "n": n, "k": k}
                if k >= 1:
                    lah = math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)
                    if bell.eval_partial_bell(FACTORIAL, n, k) != lah:
                        yield {"kind": "lah", "n": n, "k": k}
                    idem = math.comb(n, k) * k ** (n - k)
                    if bell.eval_partial_bell(IDEMPOTENT, n, k) != idem:
                        yield {"kind": "idempotent", "n": n, "k": k}

    report.append(report_item("classical specializations of B_{n,k}", f"n <= {classical_max}", failures()))

    # through the triangle: a1^k B_{n,k}(a/a1) = B_{n,k}(a), and for a1 = 0
    # the shift B_{n,k}(a) = n!/(n-k)! B_{n-k,k}(a_2/2, a_3/3, ...)
    trials = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(max_n + 2)] for _ in range(4)]

    def failures():
        for a in trials:
            for variant in (a, [Fraction(0)] + a[1:]):
                a1 = variant[0]
                shifted = [v / (m + 2) for m, v in enumerate(variant[1:])]
                for n in range(max_n + 2):
                    for k in range(n + 1):
                        if a1:
                            routed = a1**k * bell.eval_partial_bell([v / a1 for v in variant], n, k)
                        else:
                            routed = math.perm(n, k) * bell.eval_partial_bell(shifted, n - k, k)
                        want = bell.eval_partial_bell_direct(variant, n, k)
                        if not routed == want == bell.eval_partial_bell(variant, n, k):
                            yield {"n": n, "k": k, "a": [str(v) for v in variant]}
            if bell.eval_complete_bell(a, max_n) != bell.eval_complete_bell_via_gf(a, max_n):
                yield {"kind": "complete", "a": [str(v) for v in a]}

    report.append(report_item("normalization fast paths agree with direct evaluation", "random rational", failures()))

    # the served enumeration against the ladder recursion that defines it
    def failures():
        for n in range(max_n + 1):
            poly = bell.word_bell_tpoly(n)
            if bell.word_complete_bell(n) != _lincomb_sum(hopf.PHI, poly):
                yield {"n": n}
            for k in range(n + 1):
                if bell.word_partial_bell(n, k) != poly[k]:
                    yield {"n": n, "k": k}

    report.append(report_item("word Bell polynomials enumerate partitions by blocks", f"n <= {max_n}", failures()))

    failures = (
        {"pi": str(p)}
        for n in range(min(max_n, 5) + 1)
        for p in set_partitions(n)
        if bell.deriv(hopf.phi_elem(p)) != bell.deriv_via_monomial(hopf.phi_elem(p))
    )
    report.append(report_item("ladder operator factors through the monomial basis", f"n <= {min(max_n, 5)}", failures))

    # the served enumeration against the series power that defines it
    top = min(max_n, 5)

    def failures():
        for seq in (FACTORIAL, IDEMPOTENT):
            table = _colored_psi_bell_table(seq, top)
            for n in range(top + 1):
                for k in range(n + 1):
                    if bell.colored_psi_bell(seq, n, k) != table[k][n]:
                        yield {"seq": seq.spec_string(), "n": n, "k": k}

    report.append(report_item("colored dual Bell polynomials enumerate colored partitions", f"n <= {top}", failures()))

    # the specialization diagram Sym -> colored WSym* -> Q
    diagram_max = min(max_n, 6)
    images = [bell.alpha(h_from_c(n)) for n in range(diagram_max + 1)]  # read by every route
    for seq in DEFAULT_SEQUENCES:

        def failures():
            for n, image in enumerate(images):
                got = bell.gamma_beta(image, seq)
                want = bell.eval_complete_bell(seq, n) / math.factorial(n)
                if got != want:
                    yield {"n": n, "got": str(got), "want": str(want)}
                materialized = bell.gamma(bell.beta(image, seq))
                if materialized != want:
                    yield {"n": n, "route": "materialized", "got": str(materialized)}

        identity = f"diagram h_n -> A_n(a)/n! [{seq.spec_string()}]"
        report.append(report_item(identity, f"n <= {diagram_max}", failures()))

    diagram_rng = random.Random(seed)
    for t in range(2):
        a = [_rand_fraction(diagram_rng, -6, 6, 4) for _ in range(diagram_max + 1)]

        def failures():
            for n, image in enumerate(images):
                got = bell.gamma_beta(image, a)
                if got != bell.eval_complete_bell(a, n) / math.factorial(n):
                    yield {"n": n, "a": [str(v) for v in a], "got": str(got)}

        identity = f"diagram h_n -> A_n(a)/n! [random rational #{t + 1}]"
        report.append(report_item(identity, f"n <= {diagram_max}", failures()))

    pair_max = min(max_n, 5)
    for seq in DEFAULT_SEQUENCES:
        keys_by_size = {m: colored_partitions(seq, m) for m in range(1, pair_max)}

        def failures():
            for i in range(1, pair_max):
                for j in range(1, pair_max - i + 1):
                    for ki, kj in product(keys_by_size[i], keys_by_size[j]):
                        x, y = hopf.psi_elem(ki), hopf.psi_elem(kj)
                        if bell.gamma(hopf.psi_product(x, y)) != bell.gamma(x) * bell.gamma(y):
                            yield {"left": str(ki.parts), "right": str(kj.parts)}

        identity = f"gamma multiplicative [{seq.spec_string()}]"
        report.append(report_item(identity, f"total size <= {pair_max}", failures()))
    return report


# ---------------------------------------------------------------------------
# word (realization)


def word_suite(max_n: int = 5) -> list[dict]:
    report = []
    # looked up per call, so a patched realization module is what gets checked
    expand_phi, expand_psi = realization.expand_phi, realization.expand_psi
    expansions = {}

    def expanded(expand, key, L):
        # each (key, L) expanded once, for every item that reads it
        poly = expansions.get((expand, key, L))
        if poly is None:
            poly = expansions[(expand, key, L)] = expand(key, L)
        return poly

    def failures():
        seen = {}
        for n in range(min(max_n, 4) + 1):
            for key in colored_partitions(IDEMPOTENT, n):
                frozen = tuple(sorted(expanded(expand_phi, key, 4).items()))
                if frozen in seen:
                    yield {"first": str(seen[frozen]), "second": str(key)}
                seen[frozen] = key

    report.append(report_item("realization is injective on basis keys", f"n <= {min(max_n, 4)}, L = 4", failures()))

    def failures():
        for n1 in range(1, min(max_n, 4)):
            for n2 in range(1, min(max_n, 4) - n1 + 1):
                L = n1 + n2
                for p1, p2 in product(colored_partitions(IDEMPOTENT, n1), colored_partitions(IDEMPOTENT, n2)):
                    lhs = realization.shuffle_composite(
                        [tuple(range(1, n1 + 1)), tuple(range(n1 + 1, n1 + n2 + 1))],
                        [expanded(expand_phi, p1, L), expanded(expand_phi, p2, L)],
                    )
                    if lhs != expanded(expand_phi, p1.shifted_union(p2), L):
                        yield {"left": str(p1), "right": str(p2)}

    identity = "expansion intertwines product and concatenation"
    report.append(report_item(identity, f"sizes <= {min(max_n, 4)}", failures()))

    splittings = {}  # (x, y) -> {z: number of splittings of z into (x, y)}
    for z in chain.from_iterable(map(set_partitions, range(2, max_n + 1))):
        for pair in part_bipartitions(z):
            splittings.setdefault(pair, Counter())[z] += 1

    def failures():
        for n1 in range(1, max_n):
            for n2 in range(1, max_n - n1 + 1):
                for p1, p2 in product(set_partitions(n1), set_partitions(n2)):
                    L = p1.part_count + p2.part_count
                    lhs = realization.shuffle(expanded(expand_psi, p1, L), expanded(expand_psi, p2, L))
                    rhs = LinComb(realization.WORD, (
                        (w, c * d)
                        for key, c in splittings[p1, p2].items()
                        for w, d in expanded(expand_psi, key, L).items()
                    ))
                    if lhs != rhs:
                        yield {"left": str(p1), "right": str(p2)}

    report.append(report_item("shuffle realization of the dual product", f"|x|+|y| <= {max_n}", failures()))

    sides = ((hopf.PHI, expand_phi), (hopf.PSI, expand_psi))

    def failures():
        for n in range(1, min(max_n, 4) + 1):
            families = {
                tag: [None, *(expanded(expand, SetPartition.single_block(m), n) for m in range(1, n + 1))]
                for tag, expand in sides
            }
            for k in range(1, n + 1):
                for tag, expand in sides:
                    got = bell.shuffle_partial_bell(families[tag], n, k)
                    want = LinComb(realization.WORD, (
                        (w, c) for p in set_partitions(n) if p.part_count == k for w, c in expanded(expand, p, n).items()
                    ))
                    if got != want:
                        yield {"n": n, "k": k, "family": tag}

    identity = "shuffle Bell polynomials of the distinguished families"
    report.append(report_item(identity, f"n <= {min(max_n, 4)}", failures()))

    report.extend(bell.identity_suite("all", max_n=min(max_n, 4), max_k=2))
    return report


# ---------------------------------------------------------------------------
# mk


def mk_suite(max_n: int = 6) -> list[dict]:
    report = []
    nw = munthekaas.nc_word
    # each ladder built once, for every item that reads it
    words = {n: bell.word_bell_tpoly(n) for n in range(max_n + 1)}
    ncs = {n: munthekaas.mb_tpoly(n) for n in range(max(max_n, 4) + 1)}

    expected = {
        1: {1: nw(1)},
        2: {2: nw(1, 1), 1: nw(2)},
        3: {3: nw(1, 1, 1), 2: nw(2, 1) * 2 + nw(1, 2), 1: nw(3)},
        4: {
            4: nw(1, 1, 1, 1),
            3: nw(2, 1, 1) * 3 + nw(1, 2, 1) * 2 + nw(1, 1, 2),
            2: nw(3, 1) * 3 + nw(2, 2) * 3 + nw(1, 3),
            1: nw(4),
        },
    }
    failures = (
        {"n": n, "k": k} for n, rows in expected.items() for k, want in rows.items() if ncs[n][k] != want
    )
    report.append(report_item("low-degree noncommutative Bell polynomials", "n <= 4", failures))

    failures = (
        {"n": n, "k": k} for n in range(max_n + 1) for k in range(n + 1) if munthekaas.xi(words[n][k]) != ncs[n][k]
    )
    report.append(report_item("block-size morphism maps word to noncommutative Bell", f"n <= {max_n}", failures))

    failures = (
        {"n": n, "comp": comp}
        for n in range(1, min(max_n, 5) + 1)
        # each composition once, in order of first occurrence
        for comp, count in Counter(p.block_sizes() for p in set_partitions(n)).items()
        if munthekaas.ebrahimi_coefficient(n, len(comp), comp) != count
    )
    identity = "coefficients count partitions by block-size composition"
    report.append(report_item(identity, f"n <= {min(max_n, 5)}", failures))

    elems = [hopf.phi_elem(p) for n in (1, 2) for p in set_partitions(n)]

    def failures():
        zl, zr = munthekaas.zinbiel_left, munthekaas.zinbiel_right
        for u, v in product(elems, elems):
            if zl(u, v) != zr(v, u):
                yield {"axiom": "u < v = v > u"}
            for w in elems:
                total = sum(k.size for e in (u, v, w) for k in e.keys())
                if total > 4:
                    continue
                if zl(zl(u, v), w) != zl(u, zl(v, w)) + zl(u, zr(v, w)):
                    yield {"axiom": "left-left"}
                if zl(zr(u, v), w) != zr(u, zl(v, w)):
                    yield {"axiom": "mixed"}
                if zr(u, zr(v, w)) != zr(zl(u, v), w) + zr(zr(u, v), w):
                    yield {"axiom": "right-right"}

    report.append(report_item("Zinbiel axioms on the dual realization", "total size <= 4", failures()))

    def failures():
        for n in range(1, max_n + 1):
            poly = munthekaas.p_triangular(munthekaas.complete_phi_matrix(n), n)
            for k in range(1, n + 1):
                if poly[k] != words[n][k]:
                    yield {"n": n, "k": k}

    report.append(report_item("triangular polynomial of the complete matrix", f"n <= {max_n}", failures()))

    failures = (
        {"n": n}
        for n in range(1, max_n + 1)
        if munthekaas.hessenberg_expansion(n) != _lincomb_sum(munthekaas.NC, ncs[n])
    )
    report.append(report_item("Hessenberg path expansion at t = 1", f"n <= {max_n}", failures))
    return report


# ---------------------------------------------------------------------------
# appendix


def _rand_fraction(rng: random.Random, lo=-4, hi=4, den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_sequence(rng: random.Random, length: int, unit_head: bool = True):
    out = [Fraction(1) if unit_head else _rand_fraction(rng)]
    out.extend(_rand_fraction(rng) for _ in range(length - 1))
    return out


def appendix_suite(seed: int = 0) -> list[dict]:
    """Run the nine appendix identities at desk scale; see the module docstring.

    Each item draws its random data before its counterexample stream, in a
    fixed order, so a failing item leaves the data of later items unchanged."""
    rng = random.Random(seed)
    report = []

    # (i) B_{n,k}(a) = n!/k! h_{n-k}(k Xhat)
    a = _rand_sequence(rng, 10)

    def failures():
        for n in range(9):
            for k in range(n + 1):
                lhs = eval_partial_bell(a, n, k)
                if k == 0:
                    rhs = Fraction(1) if n == 0 else Fraction(0)
                else:
                    hat = hat_alphabet(a, max(n - k, 1))
                    rhs = Fraction(math.factorial(n), math.factorial(k)) * alphabet_scale(k, hat).h(n - k)
                if lhs != rhs:
                    yield {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}

    report.append(report_item("partial Bell as scaled complete function", "n <= 8", failures()))

    # (ii) binomial splitting of the block count
    a = _rand_sequence(rng, 8, unit_head=False)

    def failures():
        for n in range(8):
            for k1 in range(4):
                for k2 in range(4):
                    lhs = math.comb(k1 + k2, k1) * eval_partial_bell(a, n, k1 + k2)
                    rhs = sum(
                        (math.comb(n, i) * eval_partial_bell(a, i, k1) * eval_partial_bell(a, n - i, k2)
                         for i in range(n + 1)),
                        Fraction(0),
                    )
                    if lhs != rhs:
                        yield {"n": n, "k1": k1, "k2": k2}

    report.append(report_item("binomial splitting of partial Bell", "n <= 7, k_i <= 3", failures()))

    # (iii) convolution over a product-type sequence
    a = _rand_sequence(rng, 8)
    b = _rand_sequence(rng, 8)
    d = []
    for p in range(1, 9):
        tot = Fraction(0)
        for r in range(1, p + 1):
            tot += math.comb(p + 1, r) * a[r - 1] * b[p - r]
        d.append(tot / (p + 1))

    def failures():
        for n in range(8):
            for k in range(1, n + 1):
                lhs = math.comb(n, k) * eval_partial_bell(d, n - k, k)
                rhs = sum(
                    (math.comb(n, i) * eval_partial_bell(a, i, k) * eval_partial_bell(b, n - i, k)
                     for i in range(k, n - k + 1)),
                    Fraction(0),
                )
                if lhs != rhs:
                    yield {"n": n, "k": k, "lhs": str(lhs), "rhs": str(rhs)}

    report.append(report_item("convolution formula for partial Bell", "n <= 7", failures()))

    # (iv) idempotent closed form
    failures = (
        {"n": n, "k": k}
        for n in range(9)
        for k in range(1, n + 1)
        if eval_partial_bell(lambda m: m, n, k) != math.comb(n, k) * k ** (n - k)
    )
    report.append(report_item("idempotent-number evaluation", "n <= 8", failures))

    # (v) binomial families: the power and Abel families, plus composition
    families = (
        (lambda m, t: t**m, "power"),
        (lambda m, t: t * (t + m) ** (m - 1) if m else Fraction(1), "abel"),
    )
    t_values = [_rand_fraction(rng, 1, 4, 2) for _ in families]
    a = _rand_sequence(rng, 12)

    def failures():
        for (family, name), t_val in zip(families, t_values):
            for n in range(7):
                for k in range(1, n + 1):
                    args = [Fraction(1)] + [i * family(i - 1, t_val) for i in range(2, n + 1)]
                    lhs = eval_partial_bell(args, n, k)
                    rhs = math.comb(n, k) * family(n - k, k * t_val)
                    if lhs != rhs:
                        yield {"family": name, "n": n, "k": k}
        for k1 in (1, 2):
            for k2 in (1, 2):
                for n in range(k1, 7):
                    y = [
                        math.factorial(m) * eval_partial_bell(a, k2 + m - 1, k2) / math.factorial(k2 + m - 1)
                        for m in range(1, n + 1)
                    ]
                    lhs = eval_partial_bell(y, n, k1)
                    n2 = n - k1 + k1 * k2
                    pref = Fraction(math.factorial(k1 * k2), math.factorial(k1) * math.factorial(k2) ** k1)
                    rhs = Fraction(math.factorial(n), math.factorial(n2)) * pref * eval_partial_bell(a, n2, k1 * k2)
                    if lhs != rhs:
                        yield {"part": "composition", "n": n, "k1": k1, "k2": k2}

    report.append(report_item("binomial-family and composition identities", "n <= 6", failures()))

    # (vi) the alternating recurrence in the block count
    a = _rand_sequence(rng, 8)

    def failures():
        for n in range(2, 8):
            for k in range(1, n):
                rhs = Fraction(0)
                for i in range(1, n - k + 1):
                    weight = Fraction(k + 1) - Fraction(n + 1, i + 1)
                    rhs += math.comb(n, i) * weight * a[i] * eval_partial_bell(a, n - i, k)
                rhs /= n - k
                if eval_partial_bell(a, n, k) != rhs:
                    yield {"n": n, "k": k}

    report.append(report_item("alternating recurrence (a_1 = 1)", "n <= 7", failures()))

    # (vii) Lambert/tree evaluation
    failures = (
        {"n": n, "k": k}
        for n in range(1, 9)
        for k in range(1, n + 1)
        if eval_partial_bell(lambda m: m ** (m - 1), n, k) != math.comb(n - 1, k - 1) * n ** (n - k)
    )
    report.append(report_item("tree-function evaluation", "n <= 8", failures))

    # (viii) the two-determinant product-alphabet identity
    a = _rand_sequence(rng, 12)
    b = _rand_sequence(rng, 12)
    printed_fails = any(_two_determinant_failures(a, b, "printed"))
    failures = _two_determinant_failures(a, b, "corrected")
    item = report_item("two-determinant product identity", "n <= 5, k in {1,2,4}", failures)
    if printed_fails and item["status"] == "pass":
        item["note"] = (
            "printed factorial index fails at n = 2; corrected (lam_i - i + j + 1)! "
            "and k2 in the second determinant pass"
        )
    report.append(item)

    # (ix) the Lagrange-flavoured evaluation of scaled complete functions
    x = VirtualAlphabet.from_c(_rand_sequence(rng, 8, unit_head=False))

    def failures():
        for n in range(1, 8):
            for k in range(1, n + 1):
                args = [Fraction(1)] + [
                    math.factorial(m - 1) * alphabet_scale(m, x).h(m - 1) for m in range(2, n + 1)
                ]
                lhs = eval_partial_bell(args, n, k)
                rhs = Fraction(math.factorial(n - 1), math.factorial(k - 1)) * alphabet_scale(n, x).h(n - k)
                if lhs != rhs:
                    yield {"n": n, "k": k}

    report.append(report_item("scaled-complete evaluation of partial Bell", "n <= 7", failures()))

    return report


def _two_determinant_failures(a, b, reading: str):
    """The counterexample stream of the product-alphabet determinant identity
    in one of two readings."""

    def hat_det(lam, vals) -> Fraction:
        if reading == "corrected":  # entry a_{m+1} / (m + 1)! at m = lam_i - i + j
            return _jacobi_trudi(lam, lambda m: vals[m] / math.factorial(m + 1) if 0 <= m < len(vals) else 0)
        # printed: entry a_{lam_i - i + j + 1} / (lam_i + j + 1)! (i, j from 1),
        # whose factorial is not a function of lam_i - i + j
        size = len(lam)

        def cell(i, j):
            idx = lam[i] - i + j + 1
            return vals[idx - 1] / math.factorial(lam[i] + j + 2) if 1 <= idx <= len(vals) else Fraction(0)

        return _det([[cell(i, j) for j in range(size)] for i in range(size)])

    def d_value(n: int) -> Fraction:
        products = (hat_det(lam, a) * hat_det(lam, b) for lam in int_partitions(n - 1))
        return math.factorial(n) * sum(products, Fraction(0))

    def bell_entry(vals, kk):  # B_{m+kk,kk}(a) / (m + kk)! at m = lam_i - i + j
        return lambda m: eval_partial_bell(vals, m + kk, kk) / math.factorial(m + kk) if m >= 0 else 0

    d = [d_value(n) for n in range(1, 7)]
    for k1, k2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        k = k1 * k2
        for n in range(k, 6):
            lhs = eval_partial_bell(d, n, k)
            tot = Fraction(0)
            for lam in int_partitions(n - k):
                tot += (
                    (math.factorial(k1) * math.factorial(k2)) ** len(lam)
                    * _jacobi_trudi(lam, bell_entry(a, k1))
                    * _jacobi_trudi(lam, bell_entry(b, k2))
                )
            rhs = Fraction(math.factorial(n), math.factorial(k)) * tot
            if lhs != rhs:
                yield {"k1": k1, "k2": k2, "n": n, "reading": reading}


# ---------------------------------------------------------------------------
# dispatch


def run_suite(name: str, max_n: int | None = None, seed: int = 0) -> list[dict]:
    sized = {} if max_n is None else {"max_n": max_n}  # else each suite's own default
    if name == "hopf":
        return hopf_suite(**sized)
    if name == "bell":
        return bell_suite(**sized, seed=seed)
    if name == "word":
        return word_suite(**sized)
    if name == "mk":
        return mk_suite(**sized)
    if name == "appendix":
        return appendix_suite(seed=seed)
    if name == "all":
        # every suite but "all", which is last
        return [dict(item, suite=sub) for sub in SUITES[:-1] for item in run_suite(sub, max_n=max_n, seed=seed)]
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
