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
  hashable and usable as a basis key of a linear combination;
* the basis keys (``SetPartition``, ``ColoredSetPartition``) and
  ``ColorSequence`` compute their hash once, at construction, and return it
  on every dict lookup.  The stored value is the ``_Record`` formula (the
  hash of the tuple of fields: ``(blocks,)``, or ``(parts, seq)`` for a
  colored key), so iteration orders and outputs are unchanged.

The two kinds of key share one layout, in slots, and one implementation of
every structural operation (shifted union, standardized sub-partition,
deconcatenation, interleaving).  Every key stores its ``blocks``; a colored
key also stores ``parts``, its (block, color) pairs built on the same block
tuples, and ``seq``.  For an uncolored key ``parts`` is ``blocks`` and ``seq``
is None.  A colored key is not a ``SetPartition``; ``underlying`` forgets its
colors.

A key is read position by position through its restricted growth string
(Knuth, TAOCP 4A, 7.2.1.5), ``growth_string``; ``_by_first_occurrence`` is
its inverse, grouping the positions of any word by entry into canonical blocks.

The four bijections from colored set partitions share one transport, a
composition of species (Bergeron, Labelle and Leroux, 1998): the part (B, c)
becomes the rank-(c - 1) structure on |B| points, carried onto B by
``_onto``; each inverse standardizes the structure by ``standardize_word``
and ranks it.

A colored set partition of size n is a set of pairs (block, color) whose
blocks partition {1, ..., n} and whose color on a block of size m lies in
{1, ..., a_m} for the ambient color sequence a.  Blocks of size m are simply
impossible when a_m = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations, islice, product
from operator import itemgetter


class InvalidColorError(ValueError):
    """A color exceeds what the ambient color sequence allows."""


class SequenceMismatchError(ValueError):
    """Colored objects over different color sequences were combined."""


class FrozenInstanceError(AttributeError):
    """A field of an immutable value was assigned or deleted."""


class _Record:
    """An immutable value with the fields ``_FIELDS``, as a frozen dataclass:
    equal to a value of its class with an equal field tuple, hashed as that
    tuple, shown field by field, rebuilt by the constructor from the tuple.
    A subclass fills its fields past ``__setattr__``, which refuses them."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._FIELDS])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor
        return type(self), self._astuple()


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


def _int_literal(text: str) -> int | None:
    """The value of ``text`` if it is an ASCII integer -?[0-9]+, else None."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


_NAMED_RULES = {
    "ones": lambda m: 1,
    "factorial": math.factorial,
    "shifted-factorial": lambda m: math.factorial(m - 1),
    "idempotent": lambda m: m,
    "bell": bell_number,
    "tree": lambda m: m ** (m - 1),
}


class ColorSequence(_Record):
    """The sequence a = (a_m) of color counts, by named rule or explicit list.

    Explicit sequences carry a designated tail (a constant or a named rule) so
    that evaluation at any m >= 1 is total.
    """

    _FIELDS = ("name", "values", "tail")

    def __init__(self, name: str | None = None, values: tuple[int, ...] = (), tail: int | str | None = None):
        if name is not None:
            if name not in _NAMED_RULES:
                raise ValueError(f"unknown color sequence rule {name!r}")
            if values or tail is not None:
                raise ValueError("a named sequence takes no explicit values")
        else:
            if not all(type(v) is int for v in values):  # a bool or a float is rejected, not coerced
                raise ValueError("color counts must be integers")
            if any(v < 0 for v in values):
                raise ValueError("color counts must be nonnegative")
            if isinstance(tail, str):
                if tail not in _NAMED_RULES:
                    raise ValueError(f"unknown tail rule {tail!r}")
            elif type(tail) is not int:  # a bool or a float is rejected, not coerced
                raise ValueError(f"a tail is a rule name or an int, got {tail!r}")
            elif tail < 0:
                raise ValueError("tail constant must be nonnegative")
        self.__dict__.update(name=name, values=values, tail=tail, _hash=hash((name, values, tail)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @classmethod
    def named(cls, name: str) -> "ColorSequence":
        return cls(name=name)

    @classmethod
    def explicit(cls, values, tail: int | str = 0) -> "ColorSequence":
        return cls(values=tuple(values), tail=tail)

    @classmethod
    def constant(cls, value: int) -> "ColorSequence":
        return cls(values=(), tail=value)

    @classmethod
    def parse(cls, text: str) -> "ColorSequence":
        """Parse a sequence literal: a rule name or "1,2,9,64 tail:tree".

        Each value, and a tail that is not a rule name, is an ASCII integer
        -?[0-9]+.  One trailing comma is allowed; an empty value is not, nor
        is a literal with no value, no tail and no rule.
        """
        text = text.strip()
        if text.startswith("a="):
            text = text[2:].strip()
        if text in _NAMED_RULES:
            return cls.named(text)
        tail: int | str = 0
        has_tail = "tail:" in text
        if has_tail:
            text, _, tail_text = text.partition("tail:")
            tail_text = tail_text.strip()
            value = _int_literal(tail_text)
            tail = tail_text if value is None else value
        text = text.strip().removesuffix(",")
        if not text:
            if not has_tail:
                raise ValueError("a sequence literal needs a value, a tail or a rule name")
            return cls.explicit([], tail)
        values = []
        for entry in text.split(","):
            entry = entry.strip()
            value = _int_literal(entry)
            if value is None:
                raise ValueError(f"color count {entry!r} is not an integer")
            values.append(value)
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
        return self.tail


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


def _validate_cover(blocks, what: str) -> None:
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError(f"{what} must have nonempty blocks")
        for x in b:
            if type(x) is not int or x < 1:  # a bool is an int but not an entry
                raise ValueError(f"{what} entries must be positive integers")
            if x in seen:
                raise ValueError(f"{what} blocks overlap at {x}")
            seen.add(x)
    if seen and max(seen) != len(seen):  # distinct positive entries cover 1..n iff n is their maximum
        raise ValueError(f"{what} must cover {{1,...,{len(seen)}}} exactly")


def _shifted(blocks, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple([tuple([x + n for x in b]) for b in blocks])


_new = object.__new__
_color = itemgetter(1)


class _PartitionKey(_Record):
    """What both kinds of key share (see the module docstring for the layout).

    The structural operations work on the blocks alone and build each result
    through the hook ``_keyed(blocks, size, sources)`` that each class defines:
    a key of that class whose block i is ``blocks[i]``, colored as the part
    ``sources[i]`` it came from.  Keys are immutable and equal when their
    class, ``parts`` and ``seq`` are; ``_FIELDS`` name what ``repr`` shows and
    the constructor takes.
    """

    __slots__ = ("blocks", "_size", "_hash")

    def _fill(self, blocks, size: int, fields: tuple):
        # the caller vouches for the blocks and gives their size, which it already knows
        _set_blocks(self, blocks)
        _set_size(self, size)
        _set_hash(self, hash(fields))
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts, self.seq) == (other.parts, other.seq)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return self._size

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    def growth_string(self) -> tuple[int, ...]:
        """The restricted growth string: entry x - 1 is the number of the
        block holding x, blocks numbered from 0 in order of their minima."""
        word = [0] * self._size
        for label, block in enumerate(self.blocks):
            for x in block:
                word[x - 1] = label
        return tuple(word)

    def shifted_union(self, other):
        if other.__class__ is not self.__class__:
            raise SequenceMismatchError("cannot mix colored and uncolored keys")
        # the same sequence object needs no comparison; an uncolored key's seq is None
        if other.seq is not self.seq and other.seq != self.seq:
            raise SequenceMismatchError(
                f"color sequences differ: {self.seq.spec_string()} vs {other.seq.spec_string()}"
            )
        n = self._size
        return self._keyed(
            self.blocks + _shifted(other.blocks, n), n + other._size, self.parts + other.parts
        )

    def sub_std(self, indices):
        """Standardization of the sub-partition made of the chosen blocks.

        Relabeling is increasing and the chosen blocks keep their order of
        minima, so the result is canonical as built."""
        picked = sorted(indices)
        chosen = [self.blocks[i] for i in picked]
        support = sorted([x for b in chosen for x in b])
        rank = {x: i for i, x in enumerate(support, 1)}
        return self._keyed(
            tuple([tuple([rank[x] for x in b]) for b in chosen]),
            len(support),
            map(self.parts.__getitem__, picked),
        )

    def split_at(self, j: int):
        """Deconcatenation at j: (left, right) if no block straddles, else None."""
        if not 0 <= j <= self._size:
            raise ValueError(f"split point {j} outside 0..{self._size}")
        # blocks come in order of minima, so the blocks left of j are a prefix
        blocks, cut = self.blocks, 0
        for b in blocks:
            if b[0] > j:
                break
            if b[-1] > j:
                return None
            cut += 1
        parts = self.parts
        return (
            self._keyed(blocks[:cut], j, parts[:cut]),
            self._keyed(_shifted(blocks[cut:], -j), self._size - j, parts[cut:]),
        )


class SetPartition(_PartitionKey):
    """A set partition of {1, ..., n} in canonical form."""

    __slots__ = ()
    _FIELDS = ("blocks",)
    parts = _PartitionKey.blocks  # an uncolored key's parts are its blocks
    seq = None  # and it has no color sequence

    def __new__(cls, blocks=()):
        canon = _canonical_blocks(blocks)
        size = sum(len(b) for b in canon)
        _validate_cover(canon, "set partition")
        return cls._trusted(canon, size)

    @classmethod
    def _trusted(cls, canon: tuple[tuple[int, ...], ...], size: int) -> "SetPartition":
        return _new(cls)._fill(canon, size, (canon,))

    def _keyed(self, blocks, size: int, sources) -> "SetPartition":
        return SetPartition._trusted(blocks, size)

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls._trusted(tuple((i,) for i in range(1, n + 1)), n)

    @classmethod
    def single_block(cls, n: int) -> "SetPartition":
        return cls._trusted((tuple(range(1, n + 1)),) if n else (), n)

    def block_sizes(self) -> tuple[int, ...]:
        """Block sizes in canonical (minimum-first) order."""
        return tuple(len(b) for b in self.blocks)

    def part_factorial(self) -> int:
        """The normalization pi! = prod (#block)! ."""
        out = 1
        for b in self.blocks:
            out *= math.factorial(len(b))
        return out


class ColoredSetPartition(_PartitionKey):
    """A colored set partition: canonical (block, color) pairs plus its sequence."""

    __slots__ = ("parts", "seq")
    _FIELDS = ("parts", "seq")

    def __new__(cls, parts, seq: ColorSequence):
        parts = [(tuple(sorted(b)), c) for b, c in parts]
        if not all(type(c) is int for _, c in parts):
            raise ValueError("colored set partition colors must be integers")
        canon = _canonical_blocks(b for b, _ in parts)
        size = sum(len(b) for b in canon)
        _validate_cover(canon, "colored set partition")
        color = dict(parts)  # the blocks are distinct, having passed the cover check
        for b in canon:
            bound = seq(len(b))
            if not 1 <= color[b] <= bound:
                raise InvalidColorError(
                    f"color {color[b]} out of range 1..{bound} for a block of size {len(b)}"
                )
        return cls._trusted(canon, map(color.__getitem__, canon), seq, size)

    @classmethod
    def _trusted(cls, blocks, colors, seq: ColorSequence, size: int) -> "ColoredSetPartition":
        # as SetPartition._trusted: canonical blocks, valid colors for them, and their size
        key = _new(cls)
        parts = tuple(zip(blocks, colors))
        _set_parts(key, parts)
        _set_seq(key, seq)
        return key._fill(blocks, size, (parts, seq))

    def _keyed(self, blocks, size: int, sources) -> "ColoredSetPartition":
        return ColoredSetPartition._trusted(blocks, map(_color, sources), self.seq, size)

    @classmethod
    def empty(cls, seq: ColorSequence) -> "ColoredSetPartition":
        return cls._trusted((), (), seq, 0)

    def underlying(self) -> SetPartition:
        """Forget the colors (the projection onto ordinary set partitions)."""
        return SetPartition._trusted(self.blocks, self._size)

    def type_signature(self) -> tuple[tuple[int, int], ...]:
        """The multiset of (block size, color) pairs, sorted."""
        return tuple(sorted((len(b), c) for b, c in self.parts))


# the keys are frozen, so their slots are filled through the slot descriptors
_set_blocks = _PartitionKey.blocks.__set__
_set_size = _PartitionKey._size.__set__
_set_hash = _PartitionKey._hash.__set__
_set_parts = ColoredSetPartition.parts.__set__
_set_seq = ColoredSetPartition.seq.__set__


def _by_first_occurrence(word) -> dict:
    """The inverse of ``growth_string`` for any word: its positions 1, 2, ...
    grouped by entry, as {entry: positions}.  The entries come in order of
    first occurrence, which is the order of block minima, so the values are
    canonical blocks."""
    blocks: dict = {}
    for pos, entry in enumerate(word, 1):
        blocks.setdefault(entry, []).append(pos)
    return blocks


def standardize_word(word) -> tuple[int, ...]:
    """std for a word of distinct integers: rename its i-th smallest letter to i."""
    rank = {x: i for i, x in enumerate(sorted(word), 1)}
    return tuple([rank[x] for x in word])


def _onto(block, word) -> tuple[int, ...]:
    """Carry a word over 1..|block| onto the block: v becomes ``block[v - 1]``,
    the v-th smallest element of a canonical block.  ``standardize_word``
    undoes it."""
    return tuple([block[v - 1] for v in word])


def standardize_blocks(blocks) -> SetPartition:
    """std for plain blocks: rename the i-th smallest integer to i."""
    return standardize(((b, 1) for b in blocks), ONES).underlying()


def standardize(raw_parts, seq: ColorSequence) -> ColoredSetPartition:
    """std(Pi): rename the i-th smallest integer across all blocks to i.

    ``raw_parts`` is any iterable of (finite integer set, color) pairs with
    pairwise disjoint blocks; colors are kept and must respect the sequence.
    Overlapping blocks share a renamed entry, which the key refuses.
    """
    raw_parts = [(tuple(b), c) for b, c in raw_parts]
    renamed = iter(standardize_word([x for b, _ in raw_parts for x in b]))
    return ColoredSetPartition([(tuple(islice(renamed, len(b))), c) for b, c in raw_parts], seq)


# ---------------------------------------------------------------------------
# interleaving, splitting counts, refinement


@lru_cache(maxsize=None)
def _interleave_gather(n: int, m: int) -> itemgetter:
    """The interleaving kernel: one gather that, applied to the n + m letters
    of u + v (n, m >= 1), returns all C(n+m, n) shuffles of u with v end to
    end.

    Shuffle i places u at the i-th n-subset of the positions in
    ``combinations`` order, so the first C(n+m-1, n-1) shuffles start with
    u's first letter and the rest with v's.  With n = 0 or m = 0 the gather
    would have one index and return a letter, not a tuple.
    """
    def indices():  # streamed, so the gather's index tuple is the one copy
        for at in combinations(range(n + m), n):
            u, v = iter(range(n)), iter(range(n, n + m))
            for p in range(n + m):
                yield next(u) if p in at else next(v)

    return itemgetter(*indices())


def interleave_keys(x, y):
    """All x-hat U y-hat over support splittings (with repetitions).

    The union x U shifted y is read as its growth string, x's blocks
    numbered first.  Each shuffle of x's part of that word with y's, from
    :func:`_interleave_gather`, is packed back into blocks by
    :func:`_by_first_occurrence`, each taking the color of the union block
    its label numbers; so the keys standardize back to x and y and come in
    the kernel's order, those that give label 1 to x first.  With an empty
    side the one key is the union.  Consumers wanting multiplicities count
    repetitions; see :func:`matching_unions` for the deduplicated set.
    """
    union = x.shifted_union(y)  # also rejects mismatched sequences
    n, m = x.size, y.size
    if not (n and m):
        yield union
        return
    source, keyed = union.parts.__getitem__, union._keyed
    flat = iter(_interleave_gather(n, m)(union.growth_string()))
    for shuffled in zip(*[flat] * (n + m)):
        packed = _by_first_occurrence(shuffled)
        yield keyed(tuple(map(tuple, packed.values())), n + m, map(source, packed))


def matching_unions(x, y) -> list:
    """The set x ⋓ y, duplicate-free and canonically sorted."""
    return sorted(set(interleave_keys(x, y)), key=lambda p: p.parts)


def splitting_count(left, right, whole) -> int:
    """Number of ordered pairs of disjoint sub-partitions of ``whole`` with
    union ``whole`` standardizing to (``left``, ``right``): the coefficient
    of left ⊗ right in the Phi coproduct of ``whole``."""
    return sum(pair == (left, right) for pair in part_bipartitions(whole))


def part_bipartitions(whole):
    """All ordered splittings of the parts of ``whole`` into two standardized
    halves — the support of the Phi coproduct.  In ``combinations`` order the
    complement of the i-th subset is the i-th from the end, so each subset is
    standardized once."""
    k = whole.part_count
    halves = [whole.sub_std(sel) for r in range(k + 1) for sel in combinations(range(k), r)]
    yield from zip(halves, reversed(halves))


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when p <= q in refinement order (each q-block is a union of p-blocks)."""
    if p.size != q.size:
        return False
    # each p-block lies in one q-block iff the positions carry one (p, q) label pair per p-block
    return len(set(zip(p.growth_string(), q.growth_string()))) == p.part_count


def coarsenings(p: SetPartition) -> list[SetPartition]:
    """All q with p <= q, built by merging blocks of p: a grouping of p's
    block numbers relabels p's growth string into q's."""
    code = p.growth_string()
    out = []
    for grouping in set_partitions(p.part_count):
        merged = _by_first_occurrence(map(grouping.growth_string().__getitem__, code))
        out.append(SetPartition._trusted(tuple(map(tuple, merged.values())), p.size))
    return out


def refinements(p: SetPartition) -> list[SetPartition]:
    """All q with q <= p, built by partitioning each block of p: each set
    partition of 1..|b| is carried onto the block b."""
    choices = [[[_onto(b, sub) for sub in inner.blocks] for inner in set_partitions(len(b))] for b in p.blocks]
    return [SetPartition(chain.from_iterable(combo)) for combo in product(*choices)]


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
        out.append(SetPartition._trusted(p.blocks + ((n,),), n))
        for i in range(p.part_count):
            blocks = list(p.blocks)
            blocks[i] = blocks[i] + (n,)
            out.append(SetPartition._trusted(tuple(blocks), n))
    return tuple(out)


def _colorings(seq: ColorSequence, n: int, partitions) -> list[ColoredSetPartition]:
    """Every coloring over ``seq`` of the given set partitions of {1, ..., n},
    sorted by ``parts``.

    Colors each partition blockwise, so each colored partition appears
    exactly once; a partition with a block of size m has no coloring when
    a_m = 0 (its product of color ranges is empty).  Each key shares its
    blocks with the set partition it colors.
    """
    colors = [range(0)] + [range(1, seq(m) + 1) for m in range(1, n + 1)]
    out = [
        ColoredSetPartition._trusted(p.blocks, c, seq, n)
        for p in partitions
        for c in product(*(colors[len(b)] for b in p.blocks))
    ]
    out.sort(key=lambda cp: cp.parts)
    return out


def colored_partitions(seq: ColorSequence, n: int) -> list[ColoredSetPartition]:
    """CP_n(a), duplicate-free and canonically sorted."""
    return _colorings(seq, n, set_partitions(n))


def colored_partitions_k(seq: ColorSequence, n: int, k: int) -> list[ColoredSetPartition]:
    """CP_{n,k}(a): the colored partitions of size n with exactly k parts,
    sorted as in :func:`colored_partitions`.  Only the set partitions with k
    blocks are colored."""
    return _colorings(seq, n, (p for p in set_partitions(n) if p.part_count == k))


def count_by_type(seq: ColorSequence, n: int) -> int:
    """Number of isomorphism types of colored partitions of size n.

    Coefficient b_n of t^n in prod_{i>0} (1 - t^i)^(-a_i), by the Euler
    transform m b_m = sum_j c_j b_{m-j} with c_j = sum_{d | j} d a_d; equals
    the number of distinct (block size, color) multisets over CP_n(a).
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    a = [0] + [seq(d) for d in range(1, n + 1)]
    c = [0] + [sum(d * a[d] for d in range(1, j + 1) if j % d == 0) for j in range(1, n + 1)]
    b = [1]
    for m in range(1, n + 1):
        b.append(sum(c[j] * b[m - j] for j in range(1, m + 1)) // m)
    return b[n]


# ---------------------------------------------------------------------------
# the bijections: each part carried onto its block (see the module docstring)


def _transport(p: ColoredSetPartition, seq: ColorSequence, what: str, carry) -> list:
    """``carry(block, color)`` for each part of ``p`` in order of block minima,
    once ``p`` is checked to be a key over ``seq``."""
    if p.seq != seq:
        raise SequenceMismatchError(f"{what} require the {seq.spec_string()} sequence")
    return [carry(block, color) for block, color in p.parts]


def _by_minimum(words, what: str) -> tuple[tuple[int, ...], ...]:
    """The words as tuples in order of their minima, once checked to cover
    {1, ..., n} exactly once between them."""
    words = [tuple(w) for w in words]
    _validate_cover(words, what)
    return tuple(sorted(words, key=min))


# ---------------------------------------------------------------------------
# set partitions into lists (factorial sequence)


class ListPartition(_Record):
    """A set partition of {1, ..., n} into ordered lists."""

    _FIELDS = ("lists",)

    def __init__(self, lists):
        object.__setattr__(self, "lists", _by_minimum(lists, "list partition"))

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
    return ListPartition(_transport(
        p, FACTORIAL, "list partitions", lambda b, c: _onto(b, perm_lex_unrank(len(b), c - 1))
    ))


def from_list_partition(lp: ListPartition) -> ColoredSetPartition:
    return ColoredSetPartition([(lst, perm_lex_rank(standardize_word(lst)) + 1) for lst in lp.lists], FACTORIAL)


# ---------------------------------------------------------------------------
# cycle decompositions (shifted factorial sequence)


class CyclePermutation(_Record):
    """A permutation stored as disjoint cycles, each written minimum first."""

    _FIELDS = ("cycles",)

    def __init__(self, cycles):
        pivots = [(cyc, cyc.index(min(cyc))) for cyc in _by_minimum(cycles, "cycle decomposition")]
        object.__setattr__(self, "cycles", tuple([cyc[i:] + cyc[:i] for cyc, i in pivots]))

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


def to_cycle_permutation(p: ColoredSetPartition, unrank=cycle_unrank) -> CyclePermutation:
    """Bijection onto permutations via cycle supports.

    A block of size m with color c becomes the cycle on that support whose
    standardized form is ``unrank(m, c-1)`` (default: the canonical ranking of
    cycles written minimum-first, ordered lexicographically).
    """
    return CyclePermutation(_transport(
        p, SHIFTED_FACTORIAL, "cycle permutations", lambda b, c: _onto(b, unrank(len(b), c - 1))
    ))


def from_cycle_permutation(sigma: CyclePermutation, rank=cycle_rank) -> ColoredSetPartition:
    return ColoredSetPartition([(cyc, rank(standardize_word(cyc)) + 1) for cyc in sigma.cycles], SHIFTED_FACTORIAL)


# ---------------------------------------------------------------------------
# level-2 partitions (Bell sequence)


class Level2Partition(_Record):
    """A partition of a partition: groups of inner blocks of {1, ..., n}."""

    _FIELDS = ("groups",)

    def __init__(self, groups):
        groups = [[tuple(b) for b in g] for g in groups]
        if not all(groups):
            raise ValueError("groups must be nonempty")
        _validate_cover([b for g in groups for b in g], "level-2 partition")
        # disjoint sorted blocks, and groups of them, compare by their minima
        canon = sorted(tuple(sorted(map(tuple, map(sorted, g)))) for g in groups)
        object.__setattr__(self, "groups", tuple(canon))

    @property
    def size(self) -> int:
        return sum(len(b) for g in self.groups for b in g)

    @property
    def group_count(self) -> int:
        return len(self.groups)


def to_level2(p: ColoredSetPartition) -> Level2Partition:
    """A block of size m with color c becomes the rank-(c-1) set partition of
    that block (in enumeration order); the outer grouping follows the parts."""
    return Level2Partition(_transport(
        p, BELL, "level-2 partitions", lambda b, c: [_onto(b, inner) for inner in set_partitions(len(b))[c - 1].blocks]
    ))


def from_level2(l2: Level2Partition) -> ColoredSetPartition:
    stds = map(standardize_blocks, l2.groups)
    parts = [(chain(*g), set_partitions(std.size).index(std) + 1) for g, std in zip(l2.groups, stds)]
    return ColoredSetPartition(parts, BELL)


# ---------------------------------------------------------------------------
# idempotent endofunctions (sequence a_m = m)


class IdempotentEndofunction(_Record):
    """A function f: {1..n} -> {1..n} with f o f = f, stored by its images."""

    _FIELDS = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not all(type(v) is int for v in images):
            raise ValueError("images must be integers")
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
    targets = _transport(p, IDEMPOTENT, "idempotent endofunctions", lambda b, c: b[c - 1])
    return IdempotentEndofunction(map(targets.__getitem__, p.growth_string()))


def from_idempotent(f: IdempotentEndofunction) -> ColoredSetPartition:
    """The fiber map: f becomes {[f^{-1}(i), #{j in f^{-1}(i) : j <= i}]}."""
    fibers = _by_first_occurrence(f.images).items()
    return ColoredSetPartition([(fiber, sum(1 for j in fiber if j <= i)) for i, fiber in fibers], IDEMPOTENT)
