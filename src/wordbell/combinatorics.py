"""Colored set partitions and their combinatorial relatives.

This module owns every index set the algebraic layers are built on: set
partitions, colored set partitions for an arbitrary color sequence, set
partitions into lists, cycle decompositions of permutations, level-2 set
partitions and idempotent endofunctions — with canonical forms, enumeration,
and the explicit bijections between them.

Canonical form conventions, used everywhere:

* blocks are stored as strictly increasing tuples;
* parts are ordered by their block minimum;
* equality is structural equality of canonical forms, so every object is
  hashable and usable as a basis key of a linear combination.

A colored set partition of size n is a set of pairs (block, color) whose
blocks partition {1, ..., n} and whose color on a block of size m lies in
{1, ..., a_m} for the ambient color sequence a.  Blocks of size m are simply
impossible when a_m = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product


class InvalidColorError(ValueError):
    """A color exceeds what the ambient color sequence allows."""


class SequenceMismatchError(ValueError):
    """Colored objects over different color sequences were combined."""


# ---------------------------------------------------------------------------
# small number-theoretic helpers


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    if n == 0:
        return 1
    return sum(math.comb(n - 1, i) * bell_number(i) for i in range(n))


@lru_cache(maxsize=None)
def int_partitions(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Integer partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in int_partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def perm_lex_unrank(m: int, rank: int) -> tuple[int, ...]:
    """The rank-th permutation of (1, ..., m) in lexicographic order (0-based)."""
    if not 0 <= rank < math.factorial(m):
        raise ValueError(f"rank {rank} out of range for m={m}")
    elements = list(range(1, m + 1))
    out = []
    for i in range(m, 0, -1):
        f = math.factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(elements.pop(idx))
    return tuple(out)


def perm_lex_rank(perm: tuple[int, ...]) -> int:
    """Inverse of :func:`perm_lex_unrank`."""
    m = len(perm)
    elements = list(range(1, m + 1))
    rank = 0
    for i, p in enumerate(perm):
        idx = elements.index(p)
        rank += idx * math.factorial(m - 1 - i)
        elements.pop(idx)
    return rank


# ---------------------------------------------------------------------------
# color sequences


def _bell_rule(m: int) -> int:
    return bell_number(m)


_NAMED_RULES = {
    "ones": lambda m: 1,
    "factorial": math.factorial,
    "shifted-factorial": lambda m: math.factorial(m - 1),
    "idempotent": lambda m: m,
    "bell": _bell_rule,
    "tree": lambda m: m ** (m - 1),
}


@dataclass(frozen=True)
class ColorSequence:
    """The sequence a = (a_m) of color counts, by named rule or explicit list.

    Explicit sequences carry a designated tail (a constant or a named rule) so
    that evaluation at any m >= 1 is total.
    """

    name: str | None = None
    values: tuple[int, ...] = ()
    tail: int | str | None = None

    def __post_init__(self):
        if self.name is not None:
            if self.name not in _NAMED_RULES:
                raise ValueError(f"unknown color sequence rule {self.name!r}")
            if self.values or self.tail is not None:
                raise ValueError("a named sequence takes no explicit values")
        else:
            if any(v < 0 for v in self.values):
                raise ValueError("color counts must be nonnegative")
            if isinstance(self.tail, str) and self.tail not in _NAMED_RULES:
                raise ValueError(f"unknown tail rule {self.tail!r}")
            if isinstance(self.tail, int) and self.tail < 0:
                raise ValueError("tail constant must be nonnegative")

    @classmethod
    def named(cls, name: str) -> "ColorSequence":
        return cls(name=name)

    @classmethod
    def explicit(cls, values, tail: int | str = 0) -> "ColorSequence":
        return cls(values=tuple(int(v) for v in values), tail=tail)

    @classmethod
    def constant(cls, value: int) -> "ColorSequence":
        return cls(values=(), tail=int(value))

    @classmethod
    def parse(cls, text: str) -> "ColorSequence":
        """Parse a sequence literal: a rule name or "1,2,9,64 tail:tree"."""
        text = text.strip()
        if text.startswith("a="):
            text = text[2:].strip()
        if text in _NAMED_RULES:
            return cls.named(text)
        tail: int | str = 0
        if "tail:" in text:
            text, _, tail_text = text.partition("tail:")
            tail_text = tail_text.strip()
            tail = int(tail_text) if tail_text.lstrip("-").isdigit() else tail_text
        text = text.strip().rstrip(",")
        values = [int(v) for v in text.split(",") if v.strip()] if text else []
        return cls.explicit(values, tail)

    def spec_string(self) -> str:
        """Stable textual form, re-parsable by :meth:`parse`."""
        if self.name is not None:
            return self.name
        head = ",".join(str(v) for v in self.values)
        return f"{head} tail:{self.tail}" if head else f"tail:{self.tail}"

    def __call__(self, m: int) -> int:
        if m < 1:
            raise ValueError("color sequences are indexed from 1")
        if self.name is not None:
            return _NAMED_RULES[self.name](m)
        if m <= len(self.values):
            return self.values[m - 1]
        if isinstance(self.tail, str):
            return _NAMED_RULES[self.tail](m)
        return int(self.tail or 0)


ONES = ColorSequence.named("ones")
FACTORIAL = ColorSequence.named("factorial")
SHIFTED_FACTORIAL = ColorSequence.named("shifted-factorial")
IDEMPOTENT = ColorSequence.named("idempotent")
BELL = ColorSequence.named("bell")
TREE = ColorSequence.named("tree")


# ---------------------------------------------------------------------------
# set partitions


def _canonical_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
    return canon


def _validate_cover(blocks, size: int, what: str) -> None:
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError(f"{what} must have nonempty blocks")
        for x in b:
            if not isinstance(x, int) or x < 1:
                raise ValueError(f"{what} entries must be positive integers")
            if x in seen:
                raise ValueError(f"{what} blocks overlap at {x}")
            seen.add(x)
    if seen and (max(seen) != size or len(seen) != size):
        raise ValueError(f"{what} must cover {{1,...,{size}}} exactly")


@dataclass(frozen=True, init=False)
class SetPartition:
    """A set partition of {1, ..., n} in canonical form."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks=()):
        canon = _canonical_blocks(blocks)
        size = sum(len(b) for b in canon)
        _validate_cover(canon, size, "set partition")
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "_size", size)

    @classmethod
    def _trusted(cls, canon: tuple[tuple[int, ...], ...]) -> "SetPartition":
        obj = cls.__new__(cls)
        object.__setattr__(obj, "blocks", canon)
        object.__setattr__(obj, "_size", sum(len(b) for b in canon))
        return obj

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls._trusted(tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def single_block(cls, n: int) -> "SetPartition":
        return cls._trusted((tuple(range(1, n + 1)),) if n else ())

    @property
    def size(self) -> int:
        return self._size  # type: ignore[attr-defined]

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        """Block sizes in canonical (minimum-first) order."""
        return tuple(len(b) for b in self.blocks)

    def part_factorial(self) -> int:
        """The normalization pi! = prod (#block)! ."""
        out = 1
        for b in self.blocks:
            out *= math.factorial(len(b))
        return out

    def shift(self, n: int) -> "SetPartition":
        return SetPartition._trusted(
            tuple(tuple(x + n for x in b) for b in self.blocks)
        )

    def shifted_union(self, other: "SetPartition") -> "SetPartition":
        if not isinstance(other, SetPartition):
            raise SequenceMismatchError("cannot mix colored and uncolored keys")
        return SetPartition._trusted(self.blocks + other.shift(self.size).blocks)

    def relabel(self, positions) -> tuple[tuple[int, ...], ...]:
        """Blocks with label i replaced by positions[i-1] (positions sorted)."""
        return tuple(tuple(positions[x - 1] for x in b) for b in self.blocks)

    def sub_std(self, indices) -> "SetPartition":
        """Standardization of the sub-partition made of the chosen blocks.

        Relabeling is increasing and the chosen blocks keep their order of
        minima, so the result is canonical as built."""
        chosen = [self.blocks[i] for i in sorted(indices)]
        support = sorted(x for b in chosen for x in b)
        rank = {x: i + 1 for i, x in enumerate(support)}
        return SetPartition._trusted(tuple(tuple(rank[x] for x in b) for b in chosen))

    def split_at(self, j: int):
        """Deconcatenation at j: (left, right) if no block straddles, else None."""
        left, right = [], []
        for b in self.blocks:
            if b[-1] <= j:
                left.append(b)
            elif b[0] > j:
                right.append(tuple(x - j for x in b))
            else:
                return None
        return SetPartition._trusted(tuple(left)), SetPartition._trusted(tuple(right))


@dataclass(frozen=True, init=False)
class ColoredSetPartition:
    """A colored set partition: canonical (block, color) pairs plus its sequence."""

    parts: tuple[tuple[tuple[int, ...], int], ...]
    seq: ColorSequence

    def __init__(self, parts, seq: ColorSequence):
        canon = tuple(
            sorted(
                ((tuple(sorted(b)), int(c)) for b, c in parts),
                key=lambda p: p[0][0] if p[0] else 0,
            )
        )
        size = sum(len(b) for b, _ in canon)
        _validate_cover([b for b, _ in canon], size, "colored set partition")
        for b, c in canon:
            bound = seq(len(b))
            if not 1 <= c <= bound:
                raise InvalidColorError(
                    f"color {c} out of range 1..{bound} for a block of size {len(b)}"
                )
        object.__setattr__(self, "parts", canon)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "_size", size)

    @classmethod
    def _trusted(cls, parts, seq) -> "ColoredSetPartition":
        obj = cls.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        object.__setattr__(obj, "seq", seq)
        object.__setattr__(obj, "_size", sum(len(b) for b, _ in parts))
        return obj

    @classmethod
    def empty(cls, seq: ColorSequence) -> "ColoredSetPartition":
        return cls._trusted((), seq)

    @property
    def size(self) -> int:
        return self._size  # type: ignore[attr-defined]

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def underlying(self) -> SetPartition:
        """Forget the colors (the projection onto ordinary set partitions)."""
        return SetPartition._trusted(tuple(b for b, _ in self.parts))

    def colors(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.parts)

    def type_signature(self) -> tuple[tuple[int, int], ...]:
        """The multiset of (block size, color) pairs, sorted."""
        return tuple(sorted((len(b), c) for b, c in self.parts))

    def _check_seq(self, other: "ColoredSetPartition") -> None:
        if not isinstance(other, ColoredSetPartition):
            raise SequenceMismatchError("cannot mix colored and uncolored keys")
        if self.seq != other.seq:
            raise SequenceMismatchError(
                f"color sequences differ: {self.seq.spec_string()} vs "
                f"{other.seq.spec_string()}"
            )

    def shift(self, n: int) -> "ColoredSetPartition":
        return ColoredSetPartition._trusted(
            tuple((tuple(x + n for x in b), c) for b, c in self.parts), self.seq
        )

    def shifted_union(self, other: "ColoredSetPartition") -> "ColoredSetPartition":
        self._check_seq(other)
        return ColoredSetPartition._trusted(
            self.parts + other.shift(self.size).parts, self.seq
        )

    def relabel(self, positions) -> tuple[tuple[tuple[int, ...], int], ...]:
        return tuple(
            (tuple(positions[x - 1] for x in b), c) for b, c in self.parts
        )

    def sub_std(self, indices) -> "ColoredSetPartition":
        """As :meth:`SetPartition.sub_std`; block sizes and so colors are kept."""
        chosen = [self.parts[i] for i in sorted(indices)]
        support = sorted(x for b, _ in chosen for x in b)
        rank = {x: i + 1 for i, x in enumerate(support)}
        return ColoredSetPartition._trusted(
            tuple((tuple(rank[x] for x in b), c) for b, c in chosen), self.seq
        )

    def split_at(self, j: int):
        left, right = [], []
        for b, c in self.parts:
            if b[-1] <= j:
                left.append((b, c))
            elif b[0] > j:
                right.append((tuple(x - j for x in b), c))
            else:
                return None
        return (
            ColoredSetPartition._trusted(tuple(left), self.seq),
            ColoredSetPartition._trusted(tuple(right), self.seq),
        )


def standardize_blocks(blocks) -> SetPartition:
    """std for plain blocks: rename the i-th smallest integer to i."""
    blocks = [tuple(sorted(b)) for b in blocks]
    support: set[int] = set()
    for b in blocks:
        for x in b:
            if x in support:
                raise ValueError(f"blocks overlap at {x}")
            support.add(x)
    rank = {x: i + 1 for i, x in enumerate(sorted(support))}
    return SetPartition(tuple(tuple(rank[x] for x in b) for b in blocks))


def standardize(raw_parts, seq: ColorSequence) -> ColoredSetPartition:
    """std(Pi): rename the i-th smallest integer across all blocks to i.

    ``raw_parts`` is any iterable of (finite integer set, color) pairs with
    pairwise disjoint blocks; colors are kept and must respect the sequence.
    """
    parts = [(tuple(sorted(b)), int(c)) for b, c in raw_parts]
    support: set[int] = set()
    for b, _ in parts:
        for x in b:
            if x in support:
                raise ValueError(f"blocks overlap at {x}")
            support.add(x)
    rank = {x: i + 1 for i, x in enumerate(sorted(support))}
    return ColoredSetPartition(
        tuple((tuple(rank[x] for x in b), c) for b, c in parts), seq
    )


# ---------------------------------------------------------------------------
# interleaving, splitting counts, refinement


@lru_cache(maxsize=None)
def interleavings(n: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The C(n+m, n) splits (I, J) of the labels {1, ..., n+m} into an n-set I
    and its complement J, both increasing, with I in lexicographic order.

    Every interleaving of an n-letter support with an m-letter one is read
    from this table.  The splits with label 1 in I come first (there are
    C(n+m-1, n-1) of them for n >= 1), which the half-shuffles rely on.
    """
    universe = range(1, n + m + 1)
    out = []
    for I in combinations(universe, n):
        in_i = set(I)
        out.append((I, tuple(p for p in universe if p not in in_i)))
    return tuple(out)


def interleave_keys(x, y):
    """All x-hat U y-hat over support splittings (with repetitions).

    Yields one partition per way of choosing which |x| labels of
    {1, ..., |x|+|y|} carry x, in the order of :func:`interleavings`; the
    results standardize back to x and y.  Consumers wanting multiplicities
    count repetitions; see :func:`matching_unions` for the deduplicated set.
    """
    colored = isinstance(x, ColoredSetPartition)
    if colored:
        x._check_seq(y)
    for I, J in interleavings(x.size, y.size):
        if colored:
            yield ColoredSetPartition._trusted(
                tuple(sorted(x.relabel(I) + y.relabel(J), key=lambda p: p[0][0])),
                x.seq,
            )
        else:
            yield SetPartition._trusted(
                tuple(sorted(x.relabel(I) + y.relabel(J), key=lambda b: b[0]))
            )


def matching_unions(x, y) -> list:
    """The set x ⋓ y, duplicate-free and canonically sorted."""
    seen = set(interleave_keys(x, y))
    if isinstance(x, ColoredSetPartition):
        return sorted(seen, key=lambda p: p.parts)
    return sorted(seen, key=lambda p: p.blocks)


def splitting_count(left, right, whole) -> int:
    """Number of ordered pairs of disjoint sub-partitions of ``whole`` with
    union ``whole`` standardizing to (``left``, ``right``)."""
    if left.size + right.size != whole.size:
        return 0
    k = whole.part_count
    kl = left.part_count
    if kl + right.part_count != k:
        return 0
    count = 0
    for sel in combinations(range(k), kl):
        in_sel = set(sel)
        rest = tuple(i for i in range(k) if i not in in_sel)
        if whole.sub_std(sel) == left and whole.sub_std(rest) == right:
            count += 1
    return count


def part_bipartitions(whole):
    """All ordered splittings of the parts of ``whole`` into two standardized
    halves — the support of the Phi coproduct."""
    k = whole.part_count
    for r in range(k + 1):
        for sel in combinations(range(k), r):
            in_sel = set(sel)
            rest = tuple(i for i in range(k) if i not in in_sel)
            yield whole.sub_std(sel), whole.sub_std(rest)


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when p <= q in refinement order (each q-block is a union of p-blocks)."""
    if p.size != q.size:
        return False
    owner = {}
    for bi, b in enumerate(q.blocks):
        for x in b:
            owner[x] = bi
    for b in p.blocks:
        bi = owner[b[0]]
        if any(owner[x] != bi for x in b[1:]):
            return False
    return True


def coarsenings(p: SetPartition) -> list[SetPartition]:
    """All q with p <= q, built by merging blocks of p."""
    out = []
    for grouping in set_partitions(p.part_count):
        merged = tuple(
            tuple(sorted(x for i in g for x in p.blocks[i - 1]))
            for g in grouping.blocks
        )
        out.append(SetPartition(merged))
    return out


def refinements(p: SetPartition) -> list[SetPartition]:
    """All q with q <= p, built by partitioning each block of p."""
    choices = []
    for b in p.blocks:
        local = []
        for sub in set_partitions(len(b)):
            local.append(tuple(tuple(b[x - 1] for x in blk) for blk in sub.blocks))
        choices.append(local)
    out = []
    for combo in product(*choices):
        blocks = tuple(blk for local in combo for blk in local)
        out.append(SetPartition(blocks))
    return out


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def set_partitions(n: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1, ..., n}, each exactly once.

    Uses the insertion recursion: a partition of {1, ..., n+1} arises from one
    of {1, ..., n} either by adjoining the singleton {n+1} or by inserting n+1
    into an existing block.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return (SetPartition(),)
    out = []
    for p in set_partitions(n - 1):
        out.append(SetPartition._trusted(p.blocks + ((n,),)))
        for i in range(p.part_count):
            blocks = list(p.blocks)
            blocks[i] = blocks[i] + (n,)
            out.append(SetPartition._trusted(tuple(blocks)))
    return tuple(out)


def colored_partitions(seq: ColorSequence, n: int) -> list[ColoredSetPartition]:
    """CP_n(a), duplicate-free and canonically sorted.

    Colors ordinary partitions blockwise, so each colored partition appears
    exactly once; blocks of size m are skipped entirely when a_m = 0.
    """
    out = []
    for p in set_partitions(n):
        ranges = []
        possible = True
        for b in p.blocks:
            bound = seq(len(b))
            if bound == 0:
                possible = False
                break
            ranges.append(range(1, bound + 1))
        if not possible:
            continue
        for colors in product(*ranges):
            parts = tuple((b, c) for b, c in zip(p.blocks, colors))
            out.append(ColoredSetPartition._trusted(parts, seq))
    out.sort(key=lambda cp: cp.parts)
    return out


def colored_partitions_k(seq: ColorSequence, n: int, k: int) -> list[ColoredSetPartition]:
    """CP_{n,k}(a): the colored partitions of size n with exactly k parts."""
    return [p for p in colored_partitions(seq, n) if p.part_count == k]


def count_by_type(seq: ColorSequence, n: int) -> int:
    """Number of isomorphism types of colored partitions of size n.

    Coefficient of t^n in prod_{i>0} (1 - t^i)^(-a_i), by truncated expansion;
    equals the number of distinct (block size, color) multisets over CP_n(a).
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for i in range(1, n + 1):
        a = seq(i)
        if a == 0:
            continue
        # (1 - t^i)^(-a) = sum_j C(a+j-1, j) t^(i*j)
        out = [0] * (n + 1)
        for j in range(n // i + 1):
            w = math.comb(a + j - 1, j)
            base = i * j
            for d in range(n + 1 - base):
                if coeffs[d]:
                    out[base + d] += w * coeffs[d]
        coeffs = out
    return coeffs[n]


# ---------------------------------------------------------------------------
# set partitions into lists (factorial sequence)


@dataclass(frozen=True, init=False)
class ListPartition:
    """A set partition of {1, ..., n} into ordered lists."""

    lists: tuple[tuple[int, ...], ...]

    def __init__(self, lists):
        lists = [tuple(l) for l in lists]
        if any(not l for l in lists):
            raise ValueError("lists must be nonempty")
        canon = tuple(sorted(lists, key=min))
        flat = [x for l in canon for x in l]
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError("lists must cover {1,...,n} without repetition")
        object.__setattr__(self, "lists", canon)

    @property
    def size(self) -> int:
        return sum(len(l) for l in self.lists)

    @property
    def list_count(self) -> int:
        return len(self.lists)


def to_list_partition(p: ColoredSetPartition) -> ListPartition:
    """The bijection onto set partitions into lists.

    A block {i_1 < ... < i_m} with color c becomes the list obtained by
    permuting (i_1, ..., i_m) by the rank-(c-1) permutation of S_m in
    lexicographic order.
    """
    if p.seq != FACTORIAL:
        raise SequenceMismatchError("list partitions require the factorial sequence")
    lists = []
    for block, color in p.parts:
        perm = perm_lex_unrank(len(block), color - 1)
        lists.append(tuple(block[v - 1] for v in perm))
    return ListPartition(lists)


def from_list_partition(lp: ListPartition) -> ColoredSetPartition:
    parts = []
    for lst in lp.lists:
        support = tuple(sorted(lst))
        rank = {x: i + 1 for i, x in enumerate(support)}
        perm = tuple(rank[x] for x in lst)
        parts.append((support, perm_lex_rank(perm) + 1))
    return ColoredSetPartition(tuple(parts), FACTORIAL)


# ---------------------------------------------------------------------------
# cycle decompositions (shifted factorial sequence)


@dataclass(frozen=True, init=False)
class CyclePermutation:
    """A permutation stored as disjoint cycles, each written minimum first."""

    cycles: tuple[tuple[int, ...], ...]

    def __init__(self, cycles):
        canon = []
        for cyc in cycles:
            cyc = tuple(cyc)
            if not cyc:
                raise ValueError("cycles must be nonempty")
            pivot = cyc.index(min(cyc))
            canon.append(cyc[pivot:] + cyc[:pivot])
        canon.sort(key=lambda c: c[0])
        flat = [x for c in canon for x in c]
        if sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError("cycles must cover {1,...,n} without repetition")
        object.__setattr__(self, "cycles", tuple(canon))

    @classmethod
    def from_one_line(cls, values) -> "CyclePermutation":
        values = tuple(values)
        n = len(values)
        if sorted(values) != list(range(1, n + 1)):
            raise ValueError("not a permutation in one-line notation")
        seen = [False] * (n + 1)
        cycles = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = values[start - 1]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = values[x - 1]
            cycles.append(tuple(cyc))
        return cls(cycles)

    def one_line(self) -> tuple[int, ...]:
        images = {}
        for cyc in self.cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return tuple(images[i] for i in range(1, len(images) + 1))

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(c)) for c in self.cycles)


def cycle_unrank(m: int, rank: int) -> tuple[int, ...]:
    """Canonical bijection {0, ..., (m-1)!-1} -> cycles on {1, .., m}, min first."""
    rest = perm_lex_unrank(m - 1, rank)
    return (1,) + tuple(v + 1 for v in rest)


def cycle_rank(cycle: tuple[int, ...]) -> int:
    """Inverse of :func:`cycle_unrank` (cycle must start with its minimum, 1)."""
    if not cycle or cycle[0] != 1:
        raise ValueError("expected a standardized cycle starting at 1")
    return perm_lex_rank(tuple(v - 1 for v in cycle[1:]))


def to_cycle_permutation(p: ColoredSetPartition, unrank=None) -> CyclePermutation:
    """Bijection onto permutations via cycle supports.

    A block of size m with color c becomes the cycle on that support whose
    standardized form is ``unrank(m, c-1)`` (default: the canonical ranking of
    cycles written minimum-first, ordered lexicographically).
    """
    if p.seq != SHIFTED_FACTORIAL:
        raise SequenceMismatchError("cycle permutations require the shifted-factorial sequence")
    if unrank is None:
        unrank = cycle_unrank
    cycles = []
    for block, color in p.parts:
        std_cycle = unrank(len(block), color - 1)
        cycles.append(tuple(block[v - 1] for v in std_cycle))
    return CyclePermutation(cycles)


def from_cycle_permutation(sigma: CyclePermutation, rank=None) -> ColoredSetPartition:
    if rank is None:
        rank = cycle_rank
    parts = []
    for cyc in sigma.cycles:
        support = tuple(sorted(cyc))
        pos = {x: i + 1 for i, x in enumerate(support)}
        std_cycle = tuple(pos[x] for x in cyc)
        parts.append((support, rank(std_cycle) + 1))
    return ColoredSetPartition(tuple(parts), SHIFTED_FACTORIAL)


# ---------------------------------------------------------------------------
# level-2 partitions (Bell sequence)


@dataclass(frozen=True, init=False)
class Level2Partition:
    """A partition of a partition: groups of inner blocks of {1, ..., n}."""

    groups: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, groups):
        canon_groups = []
        for g in groups:
            blocks = tuple(sorted((tuple(sorted(b)) for b in g), key=lambda b: b[0]))
            if not blocks:
                raise ValueError("groups must be nonempty")
            canon_groups.append(blocks)
        canon_groups.sort(key=lambda g: g[0][0])
        flat_blocks = [b for g in canon_groups for b in g]
        size = sum(len(b) for b in flat_blocks)
        _validate_cover(flat_blocks, size, "level-2 partition")
        object.__setattr__(self, "groups", tuple(canon_groups))

    @property
    def size(self) -> int:
        return sum(len(b) for g in self.groups for b in g)

    @property
    def group_count(self) -> int:
        return len(self.groups)


@lru_cache(maxsize=None)
def _partition_rank_table(m: int) -> dict:
    return {p: i for i, p in enumerate(set_partitions(m))}


def to_level2(p: ColoredSetPartition) -> Level2Partition:
    """A block of size m with color c becomes the rank-(c-1) set partition of
    that block (in enumeration order); the outer grouping follows the parts."""
    if p.seq != BELL:
        raise SequenceMismatchError("level-2 partitions require the Bell sequence")
    groups = []
    for block, color in p.parts:
        inner = set_partitions(len(block))[color - 1]
        groups.append(tuple(tuple(block[x - 1] for x in b) for b in inner.blocks))
    return Level2Partition(groups)


def from_level2(l2: Level2Partition) -> ColoredSetPartition:
    parts = []
    for g in l2.groups:
        support = tuple(sorted(x for b in g for x in b))
        pos = {x: i + 1 for i, x in enumerate(support)}
        inner = SetPartition(tuple(tuple(pos[x] for x in b) for b in g))
        color = _partition_rank_table(len(support))[inner] + 1
        parts.append((support, color))
    return ColoredSetPartition(tuple(parts), BELL)


# ---------------------------------------------------------------------------
# idempotent endofunctions (sequence a_m = m)


@dataclass(frozen=True, init=False)
class IdempotentEndofunction:
    """A function f: {1..n} -> {1..n} with f o f = f, stored by its images."""

    images: tuple[int, ...]

    def __init__(self, images):
        images = tuple(int(v) for v in images)
        n = len(images)
        for i, v in enumerate(images, start=1):
            if not 1 <= v <= n:
                raise ValueError("images must lie in {1,...,n}")
        for i, v in enumerate(images, start=1):
            if images[v - 1] != v:
                raise ValueError(f"not idempotent: f(f({i})) != f({i})")
        object.__setattr__(self, "images", images)

    @property
    def size(self) -> int:
        return len(self.images)

    @property
    def image_count(self) -> int:
        return len(set(self.images))


def to_idempotent(p: ColoredSetPartition) -> IdempotentEndofunction:
    """Inverse of the fiber map: the part (B, c) sends all of B to the c-th
    smallest element of B."""
    if p.seq != IDEMPOTENT:
        raise SequenceMismatchError("idempotent endofunctions require the sequence a_m = m")
    images = [0] * p.size
    for block, color in p.parts:
        target = block[color - 1]
        for x in block:
            images[x - 1] = target
    return IdempotentEndofunction(images)


def from_idempotent(f: IdempotentEndofunction) -> ColoredSetPartition:
    """The fiber map: f becomes {[f^{-1}(i), #{j in f^{-1}(i) : j <= i}]}."""
    fibers: dict[int, list[int]] = {}
    for j, v in enumerate(f.images, start=1):
        fibers.setdefault(v, []).append(j)
    parts = []
    for i, fiber in fibers.items():
        fiber.sort()
        color = sum(1 for j in fiber if j <= i)
        parts.append((tuple(fiber), color))
    return ColoredSetPartition(tuple(parts), IDEMPOTENT)
