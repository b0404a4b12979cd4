"""Batch command line: tables, expansions, realizations and verification.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (argparse's convention), an ``--out`` path that cannot be
written among them, and 141 (128 + SIGPIPE) when the reader of a stdout pipe
closes it early, as ``head -c 10`` does: the rest of the reply is dropped and
nothing goes to stderr.  All output is deterministic:
terms are canonically sorted and JSON keys are sorted.  The environment
variable WORDBELL_MAX_DEGREE caps every size argument (default 12).  Every
integer, in the arguments or that variable, is ASCII -?[0-9]+; any other
value is a usage error.

There is one parser per process: ``main(argv)`` builds it on its first call
and reuses it for every later one, so one process can serve many requests.
Parsing leaves the parser unchanged; each call gets a fresh namespace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import SUITES, bell, munthekaas, realization
from .combinatorics import (
    BELL,
    FACTORIAL,
    IDEMPOTENT,
    ONES,
    SHIFTED_FACTORIAL,
    ColoredSetPartition,
    ColorSequence,
    CyclePermutation,
    SetPartition,
    _int_literal,
)
from .serialize import lincomb_to_jsonable, tpoly_to_jsonable

TABLE_KINDS = ("stirling2", "stirling1", "lah", "idempotent", "bell", "lists", "level2", "custom")
TRIANGLE_SEQUENCES = {
    "stirling2": ONES,
    "stirling1": SHIFTED_FACTORIAL,
    "lah": FACTORIAL,
    "idempotent": IDEMPOTENT,
}
COLUMN_SEQUENCES = {"bell": ONES, "lists": FACTORIAL, "level2": BELL}


def _integer(text: str) -> int:
    """An argument read as ASCII -?[0-9]+ (``int`` also takes ``1_0`` and
    non-ASCII digits), with argparse's ``type=int`` message on a bad one."""
    value = _int_literal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _max_degree(parser) -> int:
    raw = os.environ.get("WORDBELL_MAX_DEGREE", "12")
    value = _int_literal(raw)
    if value is None:
        parser.error(f"WORDBELL_MAX_DEGREE must be an integer, got {raw!r}")
    return value


def _emit(parser, args, text: str) -> None:
    """Write ``text`` and a closing newline to stdout or to ``--out``."""
    if not args.out:
        sys.stdout.write(text)
        sys.stdout.write("\n")
        return
    # write beside the target, then rename over it: never a half-written file
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, args.out)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json(payload) -> str:
    # a payload is a tree the handler has just built: no container repeats
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)


def _parse_seq(parser, text: str) -> ColorSequence:
    try:
        return ColorSequence.parse(text)
    except (ValueError, TypeError) as exc:
        parser.error(f"bad sequence literal {text!r}: {exc}")


def _check_bound(parser, value: int, name: str) -> int:
    cap = _max_degree(parser)
    if value < 0:
        parser.error(f"{name} must be nonnegative")
    if value > cap:
        parser.error(f"{name} = {value} exceeds the configured limit {cap}")
    return value


def _cmd_table(parser, args) -> int:
    nmax = _check_bound(parser, args.nmax, "nmax")
    kind = args.kind
    if kind == "custom" and not args.seq:
        parser.error("table custom requires --seq")
    rows = None
    column = None
    if kind in COLUMN_SEQUENCES:
        column = bell.complete_bell_column(COLUMN_SEQUENCES[kind], nmax)
    else:
        if kind in TRIANGLE_SEQUENCES:
            seq = TRIANGLE_SEQUENCES[kind]
        else:
            seq = _parse_seq(parser, args.seq)
            column = bell.complete_bell_column(seq, nmax)
        # row k of the band holds B_{k+d,k}, so B_{n,k} sits at band[k][n-k]
        band = bell.partial_bell_band(seq, nmax, max(nmax - 1, 0))
        rows = [[band[k][n - k] for k in range(1, n + 1)] for n in range(1, nmax + 1)]
    if args.format == "json":
        payload = {"kind": kind, "nmax": nmax}
        if rows is not None:
            payload["partial"] = rows
        if column is not None:
            payload["complete"] = column
        _emit(parser, args, _json(payload))
    else:
        lines = []
        if rows is not None:
            for n, row in enumerate(rows, start=1):
                for k, value in enumerate(row, start=1):
                    lines.append(f"{n},{k},{value}")
        else:
            for n, value in enumerate(column):
                lines.append(f"{n},{value}")
        _emit(parser, args, "\n".join(lines))
    return 0


def _cmd_expand(parser, args) -> int:
    n = _check_bound(parser, args.n, "n")
    k = args.k
    if k is not None and not 0 <= k <= n:
        parser.error("need 0 <= k <= n")
    if args.kind == "wordBell":
        poly = bell.word_partial_bell(n, k) if k is not None else bell.word_complete_bell(n)
        _emit(parser, args, _json(lincomb_to_jsonable(poly)))
    elif args.kind == "coloredPsi":
        if not args.seq:
            parser.error("expand coloredPsi requires --seq")
        seq = _parse_seq(parser, args.seq)
        if k is None:
            poly = bell.colored_psi_complete(seq, n)
        else:
            poly = bell.colored_psi_bell(seq, n, k)
        _emit(parser, args, _json(lincomb_to_jsonable(poly, seq.spec_string())))
    else:  # mk
        if k is None:
            _emit(parser, args, _json(tpoly_to_jsonable(munthekaas.mb_tpoly(n))))
        else:
            _emit(parser, args, _json(lincomb_to_jsonable(munthekaas.mb_partial(n, k))))
    return 0


def _parse_partition(parser, text: str, seq: ColorSequence | None):
    try:
        data = json.loads(text)
        if seq is None:
            blocks = tuple(tuple(b) for b in data)
            entries = [x for b in blocks for x in b]
        else:
            blocks = tuple((tuple(block), color) for block, color in data)
            entries = [x for block, color in blocks for x in (*block, color)]
        # bool is an int subclass, so true/false would pass as 1/0 otherwise
        if any(type(x) is not int for x in entries):
            raise TypeError("block entries and colors must be integers")
        return SetPartition(blocks) if seq is None else ColoredSetPartition(blocks, seq)
    except (ValueError, TypeError) as exc:
        parser.error(f"bad partition literal: {exc}")


def _cmd_realize(parser, args) -> int:
    L = None
    if args.truncation is not None:
        if args.truncation < 1:
            parser.error("truncation must be at least 1")
        L = _check_bound(parser, args.truncation, "truncation")
    if args.kind in ("phi", "monomial"):
        if not args.partition or L is None:
            parser.error(f"realize {args.kind} requires --partition and --truncation")
        if args.kind == "phi":
            seq = _parse_seq(parser, args.seq) if args.seq else None
            part = _parse_partition(parser, args.partition, seq)
            poly = realization.expand_phi(part, L)
        else:
            part = _parse_partition(parser, args.partition, None)
            poly = realization.expand_monomial(part, L)
    elif args.kind == "cycle":
        if not args.sigma:
            parser.error("realize cycle requires --sigma")
        line = tuple(_int_literal(v.strip()) for v in args.sigma.split(","))
        if None in line:
            parser.error(f"bad permutation: {args.sigma!r} is not a list of integers")
        try:
            sigma = CyclePermutation.from_one_line(line)
        except ValueError as exc:
            parser.error(f"bad permutation: {exc}")
        poly = realization.cycle_specialization(sigma)
    else:  # cycleBell
        if args.n is None or args.k is None:
            parser.error("realize cycleBell requires --n and --k")
        n = _check_bound(parser, args.n, "n")
        if not 0 <= args.k <= n:
            parser.error("need 0 <= k <= n")
        poly = realization.cycle_bell(n, args.k)
    _emit(parser, args, _json(lincomb_to_jsonable(poly)))
    return 0


def _cmd_verify(parser, args) -> int:
    from . import verify  # only this command loads the suites: a lean start-up for the others
    max_n = args.max_n
    if max_n is not None:
        if args.suite == "appendix":
            parser.error("verify appendix takes no --max-n: its ranges are fixed")
        max_n = _check_bound(parser, max_n, "max-n")
    report = verify.run_suite(args.suite, max_n=max_n, seed=args.seed)
    ok = all(item["status"] == "pass" for item in report)
    payload = {"suite": args.suite, "passed": ok, "items": report}
    _emit(parser, args, _json(payload))
    if not ok:
        first = next(item for item in report if item["status"] != "pass")
        print(f"verification failed: {first['identity']}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordbell",
        description="Exact tables, expansions and verification for colored set partition algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit number tables")
    p_table.add_argument("kind", choices=TABLE_KINDS)
    p_table.add_argument("nmax", type=_integer)
    p_table.add_argument("--seq", help='sequence literal, e.g. "1,2,9,64 tail:tree"')
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out")
    p_table.set_defaults(run=_cmd_table)

    p_expand = sub.add_parser("expand", help="emit a Bell polynomial expansion")
    p_expand.add_argument("kind", choices=("wordBell", "coloredPsi", "mk"))
    p_expand.add_argument("--n", type=_integer, required=True)
    p_expand.add_argument("--k", type=_integer)
    p_expand.add_argument("--seq")
    p_expand.add_argument("--out")
    p_expand.set_defaults(run=_cmd_expand)

    p_realize = sub.add_parser("realize", help="emit word polynomial realizations")
    p_realize.add_argument("kind", choices=("phi", "monomial", "cycle", "cycleBell"))
    p_realize.add_argument("--partition", help="JSON blocks, e.g. [[1,3],[2]]")
    p_realize.add_argument("--seq", help="color sequence for colored partitions")
    p_realize.add_argument("--truncation", type=_integer)
    p_realize.add_argument("--sigma", help="one-line permutation, e.g. 3,1,2")
    p_realize.add_argument("--n", type=_integer)
    p_realize.add_argument("--k", type=_integer)
    p_realize.add_argument("--out")
    p_realize.set_defaults(run=_cmd_realize)

    p_mk = sub.add_parser("mk", help="emit noncommutative Bell polynomials")
    p_mk.add_argument("--n", type=_integer, required=True)
    p_mk.add_argument("--k", type=_integer)
    p_mk.add_argument("--out")
    p_mk.set_defaults(run=_cmd_expand, kind="mk")  # the same handler as `expand mk`

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--max-n", type=_integer, dest="max_n")
    p_verify.add_argument("--seed", type=_integer, default=0)
    p_verify.add_argument("--out")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


_PARSER = None  # built by the first ``main`` call, reused by every later one


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    args = parser.parse_args(argv)
    try:
        code = args.run(parser, args)
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        # the flush at exit goes to devnull, as the Python docs' "Note on SIGPIPE" shows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
