"""Tests for the combinatorial index sets, enumeration and bijections."""

import copy
import inspect
import math
import pickle
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from wordbell.combinatorics import (
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
    InvalidColorError,
    Level2Partition,
    ListPartition,
    SequenceMismatchError,
    SetPartition,
    colored_partitions,
    colored_partitions_k,
    count_by_type,
    from_cycle_permutation,
    from_idempotent,
    from_level2,
    from_list_partition,
    _interleave_gather,
    interleave_keys,
    matching_unions,
    part_bipartitions,
    set_partitions,
    splitting_count,
    standardize,
    standardize_blocks,
    standardize_word,
    to_cycle_permutation,
    to_idempotent,
    to_level2,
    to_list_partition,
)
from wordbell.symfun import VirtualAlphabet
from wordbell.verify import DEFAULT_SEQUENCES

CONST9 = ColorSequence.constant(9)


# ---------------------------------------------------------------------------
# independent oracles


def rgs_partitions(n):
    """All set partitions of {1..n} by restricted growth strings."""
    if n == 0:
        return [()]
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for i, v in enumerate(prefix, start=1):
                blocks.setdefault(v, []).append(i)
            out.append(tuple(tuple(b) for b in blocks.values()))
            return
        for v in range(top + 2):
            grow(prefix + [v], max(top, v))

    grow([0], 0)
    return out


def bell_triangle(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def eq1_colored_partitions(seq, n):
    """The overcounting generation through matching unions, deduplicated."""
    seen = set()

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for comp in compositions(n):
        ranges = [range(1, seq(i) + 1) for i in comp]
        if any(len(r) == 0 for r in ranges):
            continue
        for colors in product(*ranges):
            pieces = [
                ColoredSetPartition([(tuple(range(1, i + 1)), c)], seq)
                for i, c in zip(comp, colors)
            ]
            current = [ColoredSetPartition.empty(seq)]
            for piece in pieces:
                current = [u for p in current for u in interleave_keys(p, piece)]
            seen.update(current)
    return seen


# ---------------------------------------------------------------------------
# color sequences


def test_named_rules_closed_forms():
    for m in range(1, 9):
        assert ONES(m) == 1
        assert FACTORIAL(m) == math.factorial(m)
        assert SHIFTED_FACTORIAL(m) == math.factorial(m - 1)
        assert IDEMPOTENT(m) == m
        assert BELL(m) == bell_triangle(m)
        assert TREE(m) == m ** (m - 1)


def test_explicit_sequence_and_tail():
    seq = ColorSequence.explicit([1, 2, 9], tail="tree")
    assert [seq(m) for m in (1, 2, 3, 4, 5)] == [1, 2, 9, 64, 625]
    const = ColorSequence.explicit([5], tail=2)
    assert [const(m) for m in (1, 2, 10)] == [5, 2, 2]
    with pytest.raises(ValueError):
        ColorSequence.explicit([-1])
    with pytest.raises(ValueError):
        ColorSequence.named("nope")
    # the constructor itself rejects a value that is not an int: a float or a
    # bool would build a sequence whose spec string does not re-parse
    with pytest.raises(ValueError):
        ColorSequence(values=(1.5, True), tail=0)


def test_int_tail_is_kept_as_given():
    # the tail is stored and returned as the int it is, and its spec string re-parses
    for seq in (ColorSequence.constant(3), ColorSequence.explicit([1], tail=0)):
        assert type(seq(5)) is int and seq.tail == seq(5)
        assert ColorSequence.parse(seq.spec_string()) == seq


def test_parse_round_trip():
    for text in ("ones", "factorial", "1,2,9,64 tail:tree", "a=2,2 tail:0"):
        seq = ColorSequence.parse(text)
        again = ColorSequence.parse(seq.spec_string())
        assert seq == again


def test_parse_rejects_malformed_literals():
    # every value and a numeric tail are ASCII -?[0-9]+; nothing is skipped or coerced
    for text in ("1,,2", ",,", "", " ", ",", "a=", "1,2,,", "1_0", "\u0663", "+1", "1 2",
                 "1 tail:1_0", "1 tail:\u0663", "1,x", "1,2 tail:nope"):
        with pytest.raises(ValueError):
            ColorSequence.parse(text)
    with pytest.raises(ValueError, match="color counts must be nonnegative"):
        ColorSequence.parse("1,-2")
    # one trailing comma is accepted, and spaces around a value
    assert ColorSequence.parse("1,2,") == ColorSequence.parse(" 1, 2 ") == ColorSequence.explicit([1, 2])
    assert ColorSequence.parse("tail:3") == ColorSequence.constant(3)


def test_zero_tail_makes_large_blocks_impossible():
    involutions = ColorSequence.explicit([1, 1], tail=0)
    counts = [len(colored_partitions(involutions, n)) for n in range(6)]
    # brute-force involution counts
    expected = []
    for n in range(6):
        count = 0
        for perm in permutations(range(1, n + 1)):
            if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
                count += 1
        expected.append(count)
    assert counts == expected


# ---------------------------------------------------------------------------
# canonical forms and standardization


def test_canonicalization_and_validation():
    p = SetPartition([(3, 1), (2,)])
    assert p.blocks == ((1, 3), (2,))
    assert p.size == 3 and p.part_count == 2
    with pytest.raises(ValueError):
        SetPartition([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        SetPartition([(1,), (3,)])
    with pytest.raises(InvalidColorError):
        ColoredSetPartition([((1, 2), 5)], ColorSequence.constant(2))


def test_standardize_scattered_labels():
    raw = [({1, 4, 7}, 1), ({3, 8}, 1), ({5}, 3), ({10}, 1)]
    got = standardize(raw, CONST9)
    assert got == ColoredSetPartition(
        [((1, 3, 5), 1), ((2, 6), 1), ((4,), 3), ((7,), 1)], CONST9
    )
    assert standardize_word((7, 3, 10, 4)) == (3, 1, 4, 2)
    assert standardize_word(()) == ()


def test_standardize_identity_and_rank():
    already = ColoredSetPartition([((1, 2), 2), ((3,), 1)], CONST9)
    assert standardize(already.parts, CONST9) == already
    two = ColorSequence.constant(2)
    assert standardize([({2}, 1), ({9}, 2)], two) == ColoredSetPartition(
        [((1,), 1), ((2,), 2)], two
    )
    with pytest.raises(ValueError):
        standardize([({1, 2}, 1), ({2, 3}, 1)], CONST9)
    with pytest.raises(InvalidColorError):
        standardize([({4}, 10)], ColorSequence.constant(2))


def test_standardize_is_idempotent():
    for p in colored_partitions(IDEMPOTENT, 4):
        assert standardize(p.parts, IDEMPOTENT) == p


# ---------------------------------------------------------------------------
# shifted union and matching unions


def test_shifted_union_worked_example():
    a = ColoredSetPartition([((1, 3), 5), ((2,), 3)], CONST9)
    b = ColoredSetPartition([((1,), 2), ((2, 3), 4)], CONST9)
    assert a.shifted_union(b) == ColoredSetPartition(
        [((1, 3), 5), ((2,), 3), ((4,), 2), ((5, 6), 4)], CONST9
    )


def test_shifted_union_unit_and_mismatch():
    a = ColoredSetPartition([((1, 2), 1)], CONST9)
    empty = ColoredSetPartition.empty(CONST9)
    assert empty.shifted_union(a) == a
    assert a.shifted_union(empty) == a
    with pytest.raises(SequenceMismatchError):
        a.shifted_union(ColoredSetPartition([((1,), 1)], ONES))


def test_matching_unions_two_singletons_and_pair():
    x = ColoredSetPartition([((1,), 5), ((2,), 3)], CONST9)
    y = ColoredSetPartition([((1, 2), 2)], CONST9)
    got = matching_unions(x, y)
    expected = [
        [((1,), 5), ((2,), 3), ((3, 4), 2)],
        [((1,), 5), ((3,), 3), ((2, 4), 2)],
        [((1,), 5), ((4,), 3), ((2, 3), 2)],
        [((2,), 5), ((3,), 3), ((1, 4), 2)],
        [((2,), 5), ((4,), 3), ((1, 3), 2)],
        [((3,), 5), ((4,), 3), ((1, 2), 2)],
    ]
    assert got == sorted(
        (ColoredSetPartition(parts, CONST9) for parts in expected),
        key=lambda p: p.parts,
    )


def test_matching_unions_with_empty():
    x = ColoredSetPartition([((1, 2), 3), ((3,), 1)], CONST9)
    assert matching_unions(x, ColoredSetPartition.empty(CONST9)) == [x]


def test_interleave_gather_shuffles():
    for n in range(1, 6):
        for m in range(1, 6):
            u, v = tuple(f"u{i}" for i in range(n)), tuple(f"v{j}" for j in range(m))
            flat = _interleave_gather(n, m)(u + v)
            shuffles = [flat[i:i + n + m] for i in range(0, len(flat), n + m)]
            assert len(shuffles) == math.comb(n + m, n)
            assert len(set(shuffles)) == len(shuffles)
            for w in shuffles:
                assert sorted(w) == sorted(u + v)
                assert tuple(a for a in w if a in u) == u
                assert tuple(a for a in w if a in v) == v
            lead = math.comb(n + m - 1, n - 1)
            assert all(w[0] == u[0] for w in shuffles[:lead])
            assert all(w[0] == v[0] for w in shuffles[lead:])


def _parts(key):
    # (block, color) pairs; plain keys get color None
    if isinstance(key, ColoredSetPartition):
        return list(key.parts)
    return [(b, None) for b in key.blocks]


def _oracle_interleavings(x, y):
    # every choice of the labels that carry x, in combinations order, with the
    # relabeled parts sorted by their minimum
    if isinstance(x, ColoredSetPartition) and (not isinstance(y, ColoredSetPartition) or x.seq != y.seq):
        raise SequenceMismatchError("oracle: sequences differ")
    n, m = x.size, y.size
    out = []
    for I in combinations(range(1, n + m + 1), n):
        J = [p for p in range(1, n + m + 1) if p not in I]
        relabeled = [(tuple(I[a - 1] for a in b), c) for b, c in _parts(x)]
        relabeled += [(tuple(J[a - 1] for a in b), c) for b, c in _parts(y)]
        out.append(sorted(relabeled))
    return out


def test_interleave_keys_match_the_label_split_oracle():
    pairs = 0
    for keys in (
        lambda n: colored_partitions(FACTORIAL, n),
        lambda n: colored_partitions(TREE, n),
        set_partitions,
    ):
        for n in range(7):
            for m in range(7 - n):
                for x in keys(n):
                    for y in keys(m):
                        got = list(interleave_keys(x, y))
                        assert [_parts(k) for k in got] == _oracle_interleavings(x, y)
                        assert all(type(k) is type(x) and k.size == n + m for k in got)
                        pairs += 1
    assert pairs == 11160 + 40489 + 815
    key = ColoredSetPartition([((1, 3), 2), ((2,), 1)], FACTORIAL)
    assert list(interleave_keys(key, ColoredSetPartition.empty(FACTORIAL))) == [key]
    assert list(interleave_keys(ColoredSetPartition.empty(FACTORIAL), key)) == [key]
    assert list(interleave_keys(SetPartition(), key.underlying())) == [key.underlying()]
    assert list(interleave_keys(key.underlying(), SetPartition())) == [key.underlying()]
    other = ColoredSetPartition([((1,), 1)], TREE)
    for x, y in (
        (key, other),
        (other, key),
        (key, ColoredSetPartition.empty(TREE)),
        (ColoredSetPartition.empty(TREE), key),
        (key, key.underlying()),
    ):
        with pytest.raises(SequenceMismatchError):
            list(interleave_keys(x, y))


def test_interleave_keys_rejects_an_uncolored_key_with_a_colored_one():
    key = ColoredSetPartition([((1, 3), 2), ((2,), 1)], FACTORIAL)
    with pytest.raises(SequenceMismatchError):
        list(interleave_keys(key.underlying(), key))


def test_sub_std_and_split_at_match_the_validating_constructors():
    for n in range(5):
        for key in colored_partitions(FACTORIAL, n):
            plain = key.underlying()
            for r in range(key.part_count + 1):
                for sel in combinations(range(key.part_count), r):
                    want = standardize([key.parts[i] for i in sel], FACTORIAL)
                    for indices in (sel, sel[::-1]):
                        got = key.sub_std(indices)
                        assert got == want and got.size == want.size
                        got_plain = plain.sub_std(indices)
                        assert got_plain == SetPartition(want.underlying().blocks)
                        assert got_plain.size == want.size
            for j in range(n + 1):
                split = plain.split_at(j)
                if split is not None:
                    for half in split:
                        want = SetPartition(half.blocks)
                        assert half == want and half.size == want.size


def test_split_at_outside_the_key_raises():
    # the halves take their sizes from j, so j must lie in 0..size
    for n in range(4):
        for key in colored_partitions(FACTORIAL, n):
            for x in (key, key.underlying()):
                for j in (-1, n + 1):
                    with pytest.raises(ValueError):
                        x.split_at(j)


def _assert_same_key(got, want):
    assert got == want and hash(got) == hash(want)
    # the cached hash is the dataclass formula, so set and dict orders are unchanged
    fields = (got.blocks,) if isinstance(got, SetPartition) else (got.parts, got.seq)
    assert hash(got) == hash(fields)
    # a colored key's blocks are the very tuples its parts carry
    assert list(map(id, got.blocks)) == [id(p if isinstance(got, SetPartition) else p[0]) for p in got.parts]


def _colors(key):
    return [c for _, c in key.parts]


def _tagged(key, first):
    # the key's blocks colored first, first + 1, ...: each color names its block
    return ColoredSetPartition(zip(key.blocks, range(first, first + key.part_count)), CONST9)


def test_key_hashes_are_cached_with_the_dataclass_formula():
    for seq, fields in (
        (FACTORIAL, ("factorial", (), None)),
        (ColorSequence.named("factorial"), ("factorial", (), None)),
        (ColorSequence.parse("1,2,9 tail:tree"), (None, (1, 2, 9), "tree")),
        (ColorSequence.constant(3), (None, (), 3)),
    ):
        assert hash(seq) == hash(fields)
    empty = ColoredSetPartition.empty(FACTORIAL)
    for n in range(5):
        for key in colored_partitions(FACTORIAL, n):
            plain = key.underlying()
            # slotted keys: no per-key __dict__; an uncolored key's parts are its blocks
            assert not hasattr(key, "__dict__") and not hasattr(plain, "__dict__")
            assert plain.parts is plain.blocks and plain.seq is None
            for got in (
                ColoredSetPartition(key.parts[::-1], FACTORIAL),
                standardize([(tuple(2 * x for x in b), c) for b, c in key.parts], FACTORIAL),
                empty.shifted_union(key),
                key.shifted_union(empty),
                key.sub_std(range(key.part_count)),
            ):
                _assert_same_key(got, key)
            for got in (SetPartition(plain.blocks[::-1]), SetPartition().shifted_union(plain)):
                _assert_same_key(got, plain)
            # each operation on a colored key acts on its blocks as on the uncolored key's,
            # and each result block keeps the color of the block it came from
            shifted = key.shift(2)
            _assert_same_key(shifted, ColoredSetPartition._trusted(
                tuple(tuple(x + 2 for x in b) for b in key.blocks), _colors(key), FACTORIAL, n
            ))
            _assert_same_key(plain.shift(2), shifted.underlying())
            for r in range(key.part_count + 1):
                for sel in combinations(range(key.part_count), r):
                    want = standardize([key.parts[i] for i in sel], FACTORIAL)
                    _assert_same_key(key.sub_std(sel), want)
                    _assert_same_key(plain.sub_std(sel), want.underlying())
                    assert _colors(want) == [key.parts[i][1] for i in sel]
            for j in range(n + 1):
                halves = key.split_at(j)
                assert (halves is None) == (plain.split_at(j) is None)
                for half, plain_half in zip(halves or (), plain.split_at(j) or ()):
                    _assert_same_key(half, ColoredSetPartition(half.parts, FACTORIAL))
                    _assert_same_key(plain_half, half.underlying())
                if halves:
                    assert _colors(halves[0]) + _colors(halves[1]) == _colors(key)
            for m in range(5 - n):
                for other in colored_partitions(FACTORIAL, m):
                    union = key.shifted_union(other)
                    _assert_same_key(union.underlying(), plain.shifted_union(other.underlying()))
                    assert _colors(union) == _colors(key) + _colors(other)
                    unions = list(interleave_keys(key, other))
                    for union in unions:
                        _assert_same_key(union, ColoredSetPartition(union.parts, FACTORIAL))
                    plain_unions = list(interleave_keys(plain, other.underlying()))
                    assert [union.underlying() for union in unions] == plain_unions
                    for union in plain_unions:
                        _assert_same_key(union, SetPartition(union.blocks))
                    k = key.part_count
                    x, y = _tagged(key, 1), _tagged(other, k + 1)
                    for union in interleave_keys(x, y):
                        assert standardize([p for p in union.parts if p[1] <= k], CONST9) == x
                        assert standardize([p for p in union.parts if p[1] > k], CONST9) == y
    key = ColoredSetPartition([((1, 3), 2), ((2,), 1)], FACTORIAL)
    assert repr(key) == (
        "ColoredSetPartition(parts=(((1, 3), 2), ((2,), 1)), "
        "seq=ColorSequence(name='factorial', values=(), tail=None))"
    )
    assert repr(key.underlying()) == "SetPartition(blocks=((1, 3), (2,)))"
    for frozen in (key, key.underlying()):
        with pytest.raises(AttributeError):
            frozen.blocks = ()
        with pytest.raises(AttributeError):
            del frozen.blocks
        _assert_same_key(copy.copy(frozen), frozen)
        _assert_same_key(pickle.loads(pickle.dumps(frozen)), frozen)


# each record class: a value, its fields, and its repr as a frozen dataclass printed it
RECORDS = (
    (FACTORIAL, ("factorial", (), None), "ColorSequence(name='factorial', values=(), tail=None)"),
    (
        ColorSequence.parse("1,2,9 tail:tree"),
        (None, (1, 2, 9), "tree"),
        "ColorSequence(name=None, values=(1, 2, 9), tail='tree')",
    ),
    (ListPartition([(3, 1), (2,)]), (((3, 1), (2,)),), "ListPartition(lists=((3, 1), (2,)))"),
    (ListPartition([(1, 3), (2,)]), (((1, 3), (2,)),), "ListPartition(lists=((1, 3), (2,)))"),
    (
        CyclePermutation.from_one_line((3, 1, 2, 5, 4)),
        (((1, 3, 2), (4, 5)),),
        "CyclePermutation(cycles=((1, 3, 2), (4, 5)))",
    ),
    (
        Level2Partition([[(1,), (3,)], [(2, 4)]]),
        ((((1,), (3,)), ((2, 4),)),),
        "Level2Partition(groups=(((1,), (3,)), ((2, 4),)))",
    ),
    (IdempotentEndofunction((1, 1, 3)), ((1, 1, 3),), "IdempotentEndofunction(images=(1, 1, 3))"),
    (
        VirtualAlphabet.from_c([1, Fraction(-1, 2)]),
        ((Fraction(1), Fraction(-1, 2)),),
        "VirtualAlphabet(c_values=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
)


def test_record_classes_are_immutable_values():
    for value, fields, text in RECORDS:
        cls = type(value)
        first = text[len(cls.__name__) + 1 : text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, first, None)
        with pytest.raises(AttributeError):
            delattr(value, first)
        assert repr(value) == text
        assert hash(value) == hash(fields)
        # equal to a value of its own class with equal fields, and to nothing else
        same = cls(*fields)
        assert same is not value and same == value and hash(same) == hash(value)
        assert value != type("Sub", (cls,), {})(*fields) and value != fields
        for other, _, _ in RECORDS:
            assert (value == other) is (value is other)
        assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)


def _two_sub_std_bipartitions(whole):
    # the earlier enumeration: each subset and its complement standardized apart
    k = whole.part_count
    for r in range(k + 1):
        for sel in combinations(range(k), r):
            rest = tuple(i for i in range(k) if i not in sel)
            yield whole.sub_std(sel), whole.sub_std(rest)


def test_part_bipartitions_matches_the_two_sub_std_enumeration():
    # a generator, so the benchmark's tracer can count the keys it yields
    assert inspect.isgeneratorfunction(part_bipartitions)
    colored = [key for seq in DEFAULT_SEQUENCES for n in range(6) for key in colored_partitions(seq, n)]
    plain = [p for n in range(8) for p in set_partitions(n)]
    assert max(p.part_count for p in plain) == 7
    for whole in colored + plain:
        got = list(part_bipartitions(whole))
        want = list(_two_sub_std_bipartitions(whole))
        assert len(got) == len(want) == 2 ** whole.part_count
        for (got_left, got_right), (want_left, want_right) in zip(got, want):
            _assert_same_key(got_left, want_left)
            _assert_same_key(got_right, want_right)


def test_shifted_union_equals_the_union_with_the_shifted_key():
    named = ColorSequence.named("factorial")
    assert named == FACTORIAL and named is not FACTORIAL
    for n in range(4):
        for m in range(4):
            for x in colored_partitions(FACTORIAL, n):
                for y in colored_partitions(named, m):
                    # equal sequences held in distinct objects still combine
                    _assert_same_key(x.shifted_union(y), ColoredSetPartition._trusted(
                        x.blocks + y.shift(n).blocks, _colors(x) + _colors(y), FACTORIAL, n + m
                    ))
                    _assert_same_key(y.shifted_union(x), ColoredSetPartition._trusted(
                        y.blocks + x.shift(m).blocks, _colors(y) + _colors(x), named, n + m
                    ))
                    px, py = x.underlying(), y.underlying()
                    _assert_same_key(px.shifted_union(py), SetPartition._trusted(
                        px.blocks + py.shift(n).blocks, n + m
                    ))


def test_shifted_union_rejects_other_sequences_and_plain_keys():
    for n in range(3):
        for x in colored_partitions(FACTORIAL, n):
            for other in (
                ColoredSetPartition.empty(ONES),
                ColoredSetPartition([((1,), 1)], ONES),
                ColoredSetPartition([((1, 2), 2)], CONST9),
                SetPartition(),
                SetPartition([(1,)]),
            ):
                with pytest.raises(SequenceMismatchError):
                    x.shifted_union(other)
                with pytest.raises(SequenceMismatchError):
                    other.shifted_union(x)


def test_alpha_values_on_matching_union_example():
    x = ColoredSetPartition([((1,), 5), ((2,), 3)], CONST9)
    y = ColoredSetPartition([((1, 2), 2)], CONST9)
    for union in matching_unions(x, y):
        assert splitting_count(x, y, union) == 1
    assert splitting_count(x, ColoredSetPartition.empty(CONST9), x) == 1


def test_alpha_total_is_binomial():
    pool2 = colored_partitions(IDEMPOTENT, 2)
    pool1 = colored_partitions(IDEMPOTENT, 1)
    for x in pool1 + pool2:
        for y in pool1 + pool2:
            total = sum(
                splitting_count(x, y, union) for union in matching_unions(x, y)
            )
            assert total == math.comb(x.size + y.size, x.size)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_ordinary():
    assert set_partitions(0) == (SetPartition(),)
    assert len(set_partitions(3)) == 5
    for n in range(9):
        assert len(set_partitions(n)) == bell_triangle(n)
    for n in range(7):
        assert {p.blocks for p in set_partitions(n)} == {
            SetPartition(blocks).blocks for blocks in rgs_partitions(n)
        }


def test_enumerate_colored_size_three_listing():
    got = colored_partitions(IDEMPOTENT, 3)
    assert len(got) == 10
    expected = [
        [((1, 2, 3), 1)],
        [((1, 2, 3), 2)],
        [((1, 2, 3), 3)],
        [((1, 2), 1), ((3,), 1)],
        [((1, 2), 2), ((3,), 1)],
        [((1, 3), 1), ((2,), 1)],
        [((1, 3), 2), ((2,), 1)],
        [((2, 3), 1), ((1,), 1)],
        [((2, 3), 2), ((1,), 1)],
        [((1,), 1), ((2,), 1), ((3,), 1)],
    ]
    assert set(got) == {ColoredSetPartition(p, IDEMPOTENT) for p in expected}
    got_k = colored_partitions_k(IDEMPOTENT, 3, 2)
    assert len(got_k) == 6
    assert all(p.part_count == 2 for p in got_k)


def test_colored_partitions_k_is_the_sorted_k_part_slice():
    # it colors only the k-block set partitions, in the order of colored_partitions
    for seq in (ONES, FACTORIAL, TREE, ColorSequence.parse("0,1,3 tail:1")):
        for n in range(6):
            every = colored_partitions(seq, n)
            assert every == sorted(every, key=lambda p: p.parts)
            for k in range(-1, n + 2):
                assert colored_partitions_k(seq, n, k) == [p for p in every if p.part_count == k]


def _assert_sized(key):
    assert key.size == sum(len(b) for b in key.blocks), key


def test_trusted_keys_carry_the_size_their_builder_passes():
    # _trusted stores the size its caller gives; every builder must give the right one
    families = [{n: list(set_partitions(n)) for n in range(6)}]
    for seq in (ONES, FACTORIAL):
        families.append({n: colored_partitions(seq, n) for n in range(6)})
        for n in range(6):
            for k in range(n + 1):
                for key in colored_partitions_k(seq, n, k):
                    _assert_sized(key)
    for keys in families:
        for n, at_n in keys.items():
            for x in at_n:
                _assert_sized(x)
                for pair in part_bipartitions(x):
                    for half in pair:
                        _assert_sized(half)
                for j in range(n + 1):
                    for half in x.split_at(j) or ():
                        _assert_sized(half)
                for m in range(6 - n):
                    for y in keys[m]:
                        _assert_sized(x.shifted_union(y))
                        for union in interleave_keys(x, y):
                            _assert_sized(union)


def test_enumerate_colored_counts_and_eq1_oracle():
    assert len(colored_partitions(ONES, 5)) == 52
    for seq in (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT):
        for n in range(5):
            mine = set(colored_partitions(seq, n))
            assert mine == eq1_colored_partitions(seq, n), (seq, n)


def test_enumeration_is_sorted_and_duplicate_free():
    for seq in (FACTORIAL, BELL):
        for n in range(5):
            got = colored_partitions(seq, n)
            assert len(got) == len(set(got))
            assert got == sorted(got, key=lambda p: p.parts)


# ---------------------------------------------------------------------------
# bijections


def test_list_partition_bijection():
    singles = ColoredSetPartition([((1,), 1), ((2,), 1)], FACTORIAL)
    assert to_list_partition(singles) == ListPartition([(1,), (2,)])
    counts = [len(colored_partitions(FACTORIAL, n)) for n in range(1, 6)]
    assert counts == [1, 3, 13, 73, 501]
    for n in range(5):
        seen = set()
        for p in colored_partitions(FACTORIAL, n):
            lp = to_list_partition(p)
            assert from_list_partition(lp) == p
            assert lp.list_count == p.part_count and lp.size == p.size
            seen.add(lp)
        assert len(seen) == len(colored_partitions(FACTORIAL, n))
    with pytest.raises(SequenceMismatchError):
        to_list_partition(ColoredSetPartition([((1,), 1)], ONES))


def test_cycle_bijection_counts_and_roundtrip():
    for n in range(1, 7):
        assert len(colored_partitions(SHIFTED_FACTORIAL, n)) == math.factorial(n)
    identity = ColoredSetPartition(
        [((i,), 1) for i in range(1, 5)], SHIFTED_FACTORIAL
    )
    assert to_cycle_permutation(identity).one_line() == (1, 2, 3, 4)
    for n in range(6):
        for p in colored_partitions(SHIFTED_FACTORIAL, n):
            sigma = to_cycle_permutation(p)
            assert from_cycle_permutation(sigma) == p
            assert sigma.cycle_count == p.part_count and sigma.size == p.size


def test_cycle_bijection_custom_ranking():
    # an alternative ranking: iota_1(1) = 1, iota_3(231) = 2, iota_3(312) = 1,
    # with one-line 231 the cycle (1 2 3) and 312 the cycle (1 3 2)
    def stated_rank(std_cycle):
        return {(1,): 0, (1, 2, 3): 1, (1, 3, 2): 0}[std_cycle]

    def stated_unrank(m, rank):
        table = {(1, 0): (1,), (3, 1): (1, 2, 3), (3, 0): (1, 3, 2)}
        return table[(m, rank)]

    sigma = CyclePermutation.from_one_line((3, 2, 4, 1, 5, 8, 6, 7))
    got = from_cycle_permutation(sigma, rank=stated_rank)
    want = ColoredSetPartition(
        [((2,), 1), ((1, 3, 4), 2), ((5,), 1), ((6, 7, 8), 1)], SHIFTED_FACTORIAL
    )
    assert got == want
    assert to_cycle_permutation(want, unrank=stated_unrank) == sigma


def test_level2_bijection():
    assert len(colored_partitions(BELL, 1)) == 1
    counts = [len(colored_partitions(BELL, n)) for n in range(1, 6)]
    assert counts == [1, 3, 12, 60, 358]
    # direct enumeration of level-2 partitions of {1..4}
    direct = set()
    for inner in set_partitions(4):
        for grouping in set_partitions(inner.part_count):
            groups = tuple(
                tuple(inner.blocks[i - 1] for i in g) for g in grouping.blocks
            )
            direct.add(Level2Partition(groups))
    images = {to_level2(p) for p in colored_partitions(BELL, 4)}
    assert images == direct and len(direct) == 60
    for n in range(6):
        for p in colored_partitions(BELL, n):
            l2 = to_level2(p)
            assert from_level2(l2) == p
            assert l2.group_count == p.part_count and l2.size == p.size


def test_idempotent_bijection():
    # brute-force scan of all n^n functions
    for n in range(1, 5):
        brute = set()
        for images in product(range(1, n + 1), repeat=n):
            if all(images[images[i] - 1] == images[i] for i in range(n)):
                brute.add(IdempotentEndofunction(images))
        mine = {to_idempotent(p) for p in colored_partitions(IDEMPOTENT, n)}
        assert mine == brute
        assert len(brute) == [1, 3, 10, 41][n - 1]
    constant = IdempotentEndofunction((1, 1, 1))
    assert from_idempotent(constant) == ColoredSetPartition(
        [((1, 2, 3), 1)], IDEMPOTENT
    )
    identity = ColoredSetPartition([((i,), 1) for i in (1, 2, 3)], IDEMPOTENT)
    assert to_idempotent(identity).images == (1, 2, 3)
    for n in range(6):
        for p in colored_partitions(IDEMPOTENT, n):
            f = to_idempotent(p)
            assert from_idempotent(f) == p
            assert f.image_count == p.part_count and f.size == p.size


@pytest.mark.parametrize("build, data", [
    (ListPartition, [[2.0, 1]]),
    (ListPartition, [[1, 3]]),
    (ListPartition, [[1], []]),
    (CyclePermutation, [[1.0, 2]]),
    (CyclePermutation, [[2, 1], [1]]),
    (CyclePermutation, [["1"]]),
    (IdempotentEndofunction, [1.9, "2"]),
    (IdempotentEndofunction, [1.0]),
    (ListPartition, [[True]]),
    (CyclePermutation, [[True]]),
    (IdempotentEndofunction, [True]),
])
def test_bijection_records_reject_what_they_would_coerce(build, data):
    # entries are ints covering {1,...,n} once, as for every other key record
    with pytest.raises(ValueError):
        build(data)


@pytest.mark.parametrize("build, args", [
    (SetPartition, ([[True]],)),
    (SetPartition, ([[True, 2]],)),
    (ColoredSetPartition, ([((True,), 1)], ONES)),
    (ColoredSetPartition, ([((1,), 1.9)], FACTORIAL)),
    (ColoredSetPartition, ([((1,), True)], ONES)),
    (ColoredSetPartition, ([((1,), "1")], ONES)),
    (ColorSequence.explicit, ([1.7],)),
    (ColorSequence.explicit, ([1, True],)),
    (ColorSequence.explicit, (["2"],)),
    (ColorSequence.explicit, ([1], 1.5)),
    (ColorSequence.explicit, ([1], True)),
    (ColorSequence.explicit, ([1], None)),
    (ColorSequence.constant, (1.9,)),
    (ColorSequence.constant, (True,)),
], ids=lambda v: getattr(v, "__qualname__", None))
def test_key_constructors_take_plain_ints_only(build, args):
    # a bool, a float or a string equal to an int is rejected, not coerced
    with pytest.raises(ValueError):
        build(*args)


# ---------------------------------------------------------------------------
# type counting


def test_count_by_type_partition_numbers():
    partition_counts = [1, 1, 2, 3, 5, 7, 11, 15]
    for n, want in enumerate(partition_counts):
        assert count_by_type(ONES, n) == want
    assert count_by_type(FACTORIAL, 0) == 1


def test_count_by_type_matches_classification():
    zero_counts = (ColorSequence.parse("0,1,3 tail:1"), ColorSequence.parse("1,1 tail:0"))
    for seq in (ONES, FACTORIAL, SHIFTED_FACTORIAL, IDEMPOTENT, *zero_counts):
        for n in range(7):
            types = {p.type_signature() for p in colored_partitions(seq, n)}
            assert count_by_type(seq, n) == len(types), (seq.spec_string(), n)


# ---------------------------------------------------------------------------
# property tests


def blocks_strategy(max_n=7):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.integers(min_value=0, max_value=max(n - 1, 0)),
            min_size=n,
            max_size=n,
        )
    )


def assignment_to_partition(assignment) -> SetPartition:
    blocks = {}
    for i, v in enumerate(assignment, start=1):
        blocks.setdefault(min(v, i - 1), []).append(i)
    return SetPartition(tuple(tuple(b) for b in blocks.values()))


partitions_st = blocks_strategy().map(assignment_to_partition)


def colored_st(seq=IDEMPOTENT, max_n=6):
    def colorize(draw_pair):
        p, seeds = draw_pair
        parts = []
        for block, seed in zip(p.blocks, seeds):
            bound = seq(len(block))
            parts.append((block, 1 + seed % bound))
        return ColoredSetPartition(parts, seq)

    return (
        blocks_strategy(max_n)
        .map(assignment_to_partition)
        .flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(
                    st.integers(min_value=0, max_value=10 ** 6),
                    min_size=p.part_count,
                    max_size=p.part_count,
                ),
            )
        )
        .map(colorize)
    )


@settings(max_examples=40, deadline=None)
@given(colored_st(), colored_st())
def test_shifted_union_bookkeeping(x, y):
    union = x.shifted_union(y)
    assert union.size == x.size + y.size
    assert union.part_count == x.part_count + y.part_count


@settings(max_examples=25, deadline=None)
@given(colored_st(max_n=4), colored_st(max_n=4), colored_st(max_n=4))
def test_shifted_union_associative(x, y, z):
    assert x.shifted_union(y).shifted_union(z) == x.shifted_union(
        y.shifted_union(z)
    )


@settings(max_examples=25, deadline=None)
@given(colored_st(max_n=3), colored_st(max_n=3))
def test_alpha_sum_property(x, y):
    total = sum(splitting_count(x, y, u) for u in matching_unions(x, y))
    assert total == math.comb(x.size + y.size, x.size)


@settings(max_examples=40, deadline=None)
@given(partitions_st)
def test_standardize_blocks_fixed_point(p):
    assert standardize_blocks(p.blocks) == p
