"""The cli-session request stream and the oracles that check each reply.

The stream is a list of argv lists for ``wordbell.cli.main``, generated from
a seed alone.  The oracles below are written from the mathematics (closed
forms, recurrences, a partition-sum formula and term counts), never from the
code they check, so a wrong table or expansion fails here even when the
program is self-consistent.  This module does not import ``wordbell``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from functools import lru_cache

# Share of large requests and count of malformed ones in a session.
LARGE_SHARE = 0.15
MALFORMED = 5

NAMED_SEQUENCES = ("ones", "factorial", "shifted-factorial", "idempotent", "bell", "tree")
SEQ_LITERALS = (
    "1,2,9,64 tail:tree",
    "2,3 tail:idempotent",
    "0,1,3 tail:1",
    "1,1 tail:0",
    "1,3,1 tail:bell",
    "a=1,2 tail:factorial",
    "3 tail:shifted-factorial",
    "1,2,3,4,5 tail:2",
)
BAD_SEQ_LITERALS = ("1,x", "1,2 tail:nope", "1,-2")
TRIANGLES = ("stirling2", "stirling1", "lah", "idempotent")
COLUMNS = ("bell", "lists", "level2")


# ---------------------------------------------------------------------------
# the stream


def _random_set_partition(rng: random.Random, n: int) -> list[list[int]]:
    blocks: list[list[int]] = []
    for x in range(1, n + 1):
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([x])
        else:
            blocks[i].append(x)
    return blocks


# Request kinds, dealt out in turn so that every seed gets the same mix and
# only the sizes and sequences vary with the seed.
SMALL_KINDS = ("table", "table", "table", "expand wordBell", "expand coloredPsi",
               "expand mk", "mk", "realize phi", "realize phi", "realize monomial", "realize cycle")
LARGE_KINDS = ("table custom", "table stirling2", "table lah", "expand wordBell",
               "expand coloredPsi", "realize cycleBell")
MALFORMED_KINDS = ("seq", "expand-k", "psi-k")


def _small_request(rng: random.Random, kind: str) -> list[str]:
    if kind == "table":
        table = rng.choice(TRIANGLES + COLUMNS + ("custom",))
        argv = ["table", table, str(rng.randint(1, 12))]
        if table == "custom":
            argv += ["--seq", rng.choice(SEQ_LITERALS)]
        if rng.random() < 0.3:
            argv += ["--format", "csv"]
        return argv
    if kind.startswith("expand"):
        what = kind.split()[1]
        n = rng.randint(1, {"wordBell": 7, "coloredPsi": 4, "mk": 6}[what])
        argv = ["expand", what, "--n", str(n)]
        if rng.random() < 0.5:
            argv += ["--k", str(rng.randint(1, n))]
        if what == "coloredPsi":
            argv += ["--seq", rng.choice(NAMED_SEQUENCES + SEQ_LITERALS)]
        return argv
    if kind == "mk":
        n = rng.randint(1, 7)
        argv = ["mk", "--n", str(n)]
        if rng.random() < 0.5:
            argv += ["--k", str(rng.randint(1, n))]
        return argv
    if kind == "realize cycle":
        line = list(range(1, rng.randint(1, 8) + 1))
        rng.shuffle(line)
        return ["realize", "cycle", "--sigma", ",".join(map(str, line))]
    what = kind.split()[1]
    blocks = _random_set_partition(rng, rng.randint(1, 5))
    truncation = rng.randint(1, 3 if what == "phi" else 4)
    if what == "phi" and rng.random() < 0.4:
        # Colored key over the factorial sequence: a block of size m has m! colors.
        parts = [[b, rng.randint(1, math.factorial(len(b)))] for b in blocks]
        return ["realize", "phi", "--partition", json.dumps(parts, separators=(",", ":")),
                "--seq", "factorial", "--truncation", str(truncation)]
    return ["realize", what, "--partition", json.dumps(blocks, separators=(",", ":")),
            "--truncation", str(truncation)]


def _large_request(kind: str, turn: int) -> list[str]:
    # Every choice that sets the cost (table size, sequence, whether --k is
    # given and its value) is dealt in turn, so sessions of different seeds
    # hold the same large requests; the seed only places them.
    if kind.startswith("table"):
        table = kind.split()[1]
        argv = ["table", table, str(16 + turn % 5)]
        if table == "custom":
            argv += ["--seq", SEQ_LITERALS[turn % 3]]
        return argv
    if kind == "expand wordBell":
        argv = ["expand", "wordBell", "--n", "8"]
        return argv + ["--k", str(2 + turn // 2)] if turn % 2 else argv
    if kind == "expand coloredPsi":
        argv = ["expand", "coloredPsi", "--n", "5", "--seq", "tree"]
        return argv + ["--k", str(1 + 2 * (turn // 2))] if turn % 2 else argv
    return ["realize", "cycleBell", "--n", "7", "--k", str(1 + turn % 7)]


def _malformed_request(rng: random.Random, kind: str) -> list[str]:
    if kind == "seq":
        return ["table", "custom", str(rng.randint(1, 8)), "--seq", rng.choice(BAD_SEQ_LITERALS)]
    n = rng.randint(1, 5)
    if kind == "expand-k":
        return ["expand", "wordBell", "--n", str(n), "--k", str(n + rng.randint(1, 3))]
    return ["expand", "coloredPsi", "--n", str(n), "--k", str(n + 1), "--seq", "ones"]


def make_stream(seed: int, count: int) -> list[list[str]]:
    """``count`` requests: about 15% large, a few malformed, the rest small."""
    rng = random.Random(seed)
    large = round(count * LARGE_SHARE)
    bad = min(MALFORMED, count - large)
    kinds = len(LARGE_KINDS)
    stream = [_large_request(LARGE_KINDS[i % kinds], i // kinds) for i in range(large)]
    stream += [_malformed_request(rng, MALFORMED_KINDS[i % len(MALFORMED_KINDS)]) for i in range(bad)]
    stream += [_small_request(rng, SMALL_KINDS[i % len(SMALL_KINDS)]) for i in range(count - large - bad)]
    rng.shuffle(stream)
    return stream


def is_malformed(argv: list[str]) -> bool:
    """Requests the CLI must refuse with exit 2 (as generated above)."""
    if "--seq" in argv and argv[argv.index("--seq") + 1] in BAD_SEQ_LITERALS:
        return True
    if argv[0] == "expand" and "--k" in argv:
        return int(argv[argv.index("--k") + 1]) > int(argv[argv.index("--n") + 1])
    return False


# ---------------------------------------------------------------------------
# independent number theory


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind."""
    if n == 0 or k == 0:
        return int(n == k)
    return (n - 1) * stirling1(n - 1, k) + stirling1(n - 1, k - 1)


def lah(n: int, k: int) -> int:
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


def idempotent(n: int, k: int) -> int:
    return math.comb(n, k) * k ** (n - k)


def bell_number(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


_RULES = {
    "ones": lambda m: 1,
    "factorial": math.factorial,
    "shifted-factorial": lambda m: math.factorial(m - 1),
    "idempotent": lambda m: m,
    "bell": bell_number,
    "tree": lambda m: m ** (m - 1),
}


def sequence(text: str):
    """a_m for a sequence literal: a rule name, or values with a ``tail:``."""
    text = text.removeprefix("a=")
    if text in _RULES:
        return _RULES[text]
    head, _, tail = text.partition("tail:")
    values = [int(v) for v in head.replace(" ", "").strip(",").split(",") if v]
    tail = tail.strip()
    rest = _RULES[tail] if tail in _RULES else (lambda m, c=int(tail or 0): c)
    return lambda m: values[m - 1] if m <= len(values) else rest(m)


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partial_bell(seq_text: str, n: int, k: int) -> int:
    """B_{n,k}(a) = sum over partitions of n into k parts of
    n! / (prod lambda_i! prod mult_j!) * prod a_{lambda_i}."""
    a = sequence(seq_text)
    total = 0
    for lam in _partitions(n, n):
        if len(lam) != k:
            continue
        denom = 1
        for part in lam:
            denom *= math.factorial(part)
        for part in set(lam):
            denom *= math.factorial(lam.count(part))
        weight = math.prod(a(part) for part in lam)
        total += math.factorial(n) // denom * weight
    return total


def complete_bell(seq_text: str, n: int) -> int:
    return sum(partial_bell(seq_text, n, k) for k in range(n + 1))


def _cycles(line: tuple[int, ...]) -> list[list[int]]:
    """Cycles of the permutation i -> line[i-1], each read from its minimum."""
    seen: set[int] = set()
    out = []
    for start in range(1, len(line) + 1):
        if start not in seen:
            cycle = [start]
            while line[cycle[-1] - 1] != start:
                cycle.append(line[cycle[-1] - 1])
            seen.update(cycle)
            out.append(cycle)
    return out


def cycle_word(line: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The word of a permutation: the j-th smallest position of each cycle
    carries b_r, with r the rank within the cycle of its j-th element."""
    word = {}
    for cycle in _cycles(line):
        support = sorted(cycle)
        for pos, x in zip(support, cycle):
            word[pos] = (1, support.index(x) + 1)
    return tuple(word[pos] for pos in sorted(word))


@lru_cache(maxsize=None)
def cycle_bell_words(n: int, k: int) -> dict:
    """Multiplicity of each cycle word over the permutations with k cycles."""
    out: dict = {}
    for line in itertools.permutations(range(1, n + 1)):
        if len(_cycles(line)) == k:
            w = cycle_word(line)
            out[w] = out.get(w, 0) + 1
    return out


TRIANGLE_ORACLES = {"stirling2": stirling2, "stirling1": stirling1, "lah": lah, "idempotent": idempotent}
COLUMN_SEQUENCE = {"bell": "ones", "lists": "factorial", "level2": "bell"}


# ---------------------------------------------------------------------------
# the oracles


def _opt(argv: list[str], name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _check_table(argv: list[str], out: str) -> str | None:
    kind, nmax = argv[1], int(argv[2])
    seq = _opt(argv, "--seq")
    if kind in TRIANGLE_ORACLES:
        f = TRIANGLE_ORACLES[kind]
        rows = [[f(n, k) for k in range(1, n + 1)] for n in range(1, nmax + 1)]
        column = None
    elif kind in COLUMN_SEQUENCE:
        rows = None
        column = [complete_bell(COLUMN_SEQUENCE[kind], n) for n in range(nmax + 1)]
    else:
        rows = [[partial_bell(seq, n, k) for k in range(1, n + 1)] for n in range(1, nmax + 1)]
        column = [complete_bell(seq, n) for n in range(nmax + 1)]
    if _opt(argv, "--format") == "csv":
        if rows is not None:
            want = [f"{n},{k},{v}" for n, row in enumerate(rows, 1) for k, v in enumerate(row, 1)]
        else:
            want = [f"{n},{v}" for n, v in enumerate(column)]
        return None if out == "\n".join(want) + "\n" else "csv table differs from the oracle"
    payload = json.loads(out)
    want = {"kind": kind, "nmax": nmax}
    if rows is not None:
        want["partial"] = rows
    if column is not None:
        want["complete"] = column
    return None if payload == want else "json table differs from the oracle"


def _header(payload: dict, basis: str, sequence: str | None = None) -> str | None:
    if payload.get("basis") != basis:
        return f"basis {payload.get('basis')!r}, expected {basis!r}"
    if payload.get("sequence") != sequence:
        return f"sequence {payload.get('sequence')!r}, expected {sequence!r}"
    return None


def _unit_terms(payload: dict, basis: str, sequence: str | None = None) -> list | str:
    problem = _header(payload, basis, sequence)
    if problem:
        return problem
    terms = payload["terms"]
    if any(t["num"] != "1" or t["den"] != "1" for t in terms):
        return "a coefficient is not 1"
    keys = [json.dumps(t["key"]) for t in terms]
    if len(set(keys)) != len(keys):
        return "repeated key"
    return [t["key"] for t in terms]


def _is_set_partition(blocks, n: int) -> bool:
    flat = sorted(x for b in blocks for x in b)
    return flat == list(range(1, n + 1)) and all(b and b == sorted(b) for b in blocks)


def _check_word_bell(n: int, k: int | None, payload: dict) -> str | None:
    keys = _unit_terms(payload, "Phi")
    if isinstance(keys, str):
        return keys
    want = bell_number(n) if k is None else stirling2(n, k)
    if len(keys) != want:
        return f"{len(keys)} terms, expected {want}"
    if not all(_is_set_partition(b, n) and (k is None or len(b) == k) for b in keys):
        return "a key is not a set partition of the right shape"
    return None


def _check_colored_psi(n: int, k: int | None, seq: str, payload: dict) -> str | None:
    keys = _unit_terms(payload, "Psi", seq.removeprefix("a="))
    if isinstance(keys, str):
        return keys
    want = complete_bell(seq, n) if k is None else partial_bell(seq, n, k)
    if len(keys) != want:
        return f"{len(keys)} terms, expected B(a) = {want}"
    a = sequence(seq)
    for parts in keys:
        blocks = [b for b, _ in parts]
        if not _is_set_partition(blocks, n) or (k is not None and len(parts) != k):
            return "a key is not a colored set partition of the right shape"
        if not all(1 <= c <= a(len(b)) for b, c in parts):
            return "a color is out of range"
    return None


def _check_mk_slice(n: int, k: int, payload: dict) -> str | None:
    problem = _header(payload, "NC")
    if problem:
        return problem
    keys = [tuple(t["key"]) for t in payload["terms"]]
    total = 0
    for t in payload["terms"]:
        if t["den"] != "1":
            return "a coefficient is not an integer"
        total += int(t["num"])
    compositions = math.comb(n - 1, k - 1) if n and k else int(n == k)
    if len(keys) != compositions:
        return f"{len(keys)} compositions, expected {compositions}"
    if not all(len(c) == k and sum(c) == n and min(c, default=1) >= 1 for c in keys):
        return "a key is not a composition of n into k parts"
    return None if total == stirling2(n, k) else f"coefficients sum to {total}, expected S({n},{k})"


def _check_mk(n: int, k: int | None, payload: dict) -> str | None:
    if k is not None:
        return _check_mk_slice(n, k, payload)
    slices = payload["coefficients"]
    if len(slices) != n + 1:
        return f"{len(slices)} t-coefficients, expected {n + 1}"
    for j, piece in enumerate(slices):
        problem = _check_mk_slice(n, j, piece)
        if problem:
            return f"t^{j}: {problem}"
    return None


def _check_realize(argv: list[str], payload: dict) -> str | None:
    kind = argv[1]
    if kind in ("cycle", "cycleBell"):
        problem = _header(payload, "Word")
        if problem:
            return problem
        got = {tuple(map(tuple, t["key"])): (t["num"], t["den"]) for t in payload["terms"]}
        if kind == "cycle":
            want = {cycle_word(tuple(int(v) for v in _opt(argv, "--sigma").split(","))): 1}
        else:
            want = cycle_bell_words(int(_opt(argv, "--n")), int(_opt(argv, "--k")))
        ok = len(got) == len(payload["terms"]) and got == {w: (str(c), "1") for w, c in want.items()}
        return None if ok else "cycle words differ from the permutation enumeration"
    keys = _unit_terms(payload, "Word")
    if isinstance(keys, str):
        return keys
    parts = json.loads(_opt(argv, "--partition"))
    L = int(_opt(argv, "--truncation"))
    colored = _opt(argv, "--seq") is not None
    blocks = [b for b, _ in parts] if colored else parts
    alphabets = [c for _, c in parts] if colored else [1] * len(parts)
    n, b = sum(len(x) for x in blocks), len(blocks)
    want = L**b if kind == "phi" else math.perm(L, b)
    if len(keys) != want:
        return f"{len(keys)} words, expected {want}"
    for word in keys:
        if len(word) != n:
            return "a word has the wrong length"
        letters = [word[block[0] - 1] for block in blocks]
        if any(word[x - 1] != letter for block, letter in zip(blocks, letters) for x in block):
            return "a block does not carry one letter"
        if [a for a, _ in letters] != alphabets or any(not 1 <= i <= L for _, i in letters):
            return "a letter is outside its alphabet"
        if kind == "monomial" and len({tuple(x) for x in letters}) != b:
            return "two blocks of a monomial word share a letter"
    return None


def check_reply(argv: list[str], code, out: str) -> str | None:
    """Why the reply to ``argv`` is wrong, or None when it is right."""
    if is_malformed(argv):
        return None if code == 2 and out == "" else f"malformed request gave exit {code}"
    if code != 0:
        return f"exit {code}"
    try:
        if argv[0] == "table":
            return _check_table(argv, out)
        payload = json.loads(out)
        if argv[0] == "mk" or argv[1] == "mk":
            k = _opt(argv, "--k")
            return _check_mk(int(_opt(argv, "--n")), None if k is None else int(k), payload)
        if argv[0] == "expand":
            n, k = int(_opt(argv, "--n")), _opt(argv, "--k")
            k = None if k is None else int(k)
            if argv[1] == "wordBell":
                return _check_word_bell(n, k, payload)
            return _check_colored_psi(n, k, _opt(argv, "--seq"), payload)
        return _check_realize(argv, payload)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable reply: {exc!r}"
