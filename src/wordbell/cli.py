"""Batch command line: tables, expansions, realizations and verification.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on usage errors (argparse's convention), an ``--out`` path that cannot be
written among them.  All output is deterministic:
terms are canonically sorted and JSON keys are sorted.  The environment
variable WORDBELL_MAX_DEGREE caps every size argument (default 12); a value
that is not an integer is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bell, munthekaas, realization, verify
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


def _max_degree(parser) -> int:
    raw = os.environ.get("WORDBELL_MAX_DEGREE", "12")
    try:
        return int(raw)
    except ValueError:
        parser.error(f"WORDBELL_MAX_DEGREE must be an integer, got {raw!r}")


def _emit(parser, args, text: str) -> None:
    if not getattr(args, "out", None):
        sys.stdout.write(text)
        return
    # write beside the target, then rename over it: never a half-written file
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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
        _emit(parser, args, "\n".join(lines) + "\n")
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
    elif args.kind == "mk":
        if k is None:
            _emit(parser, args, _json(tpoly_to_jsonable(munthekaas.mb_tpoly(n))))
        else:
            _emit(parser, args, _json(lincomb_to_jsonable(munthekaas.mb_partial(n, k))))
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown expand kind {args.kind!r}")
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
        try:
            line = tuple(int(v) for v in args.sigma.split(","))
            sigma = CyclePermutation.from_one_line(line)
        except ValueError as exc:
            parser.error(f"bad permutation: {exc}")
        poly = realization.cycle_specialization(sigma)
    elif args.kind == "cycleBell":
        if args.n is None or args.k is None:
            parser.error("realize cycleBell requires --n and --k")
        n = _check_bound(parser, args.n, "n")
        if not 0 <= args.k <= n:
            parser.error("need 0 <= k <= n")
        poly = realization.cycle_bell(n, args.k)
    else:  # pragma: no cover
        parser.error(f"unknown realize kind {args.kind!r}")
    _emit(parser, args, _json(lincomb_to_jsonable(poly)))
    return 0


def _cmd_verify(parser, args) -> int:
    max_n = args.max_n
    if max_n is not None:
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
    p_table.add_argument("nmax", type=int)
    p_table.add_argument("--seq", help='sequence literal, e.g. "1,2,9,64 tail:tree"')
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out")

    p_expand = sub.add_parser("expand", help="emit a Bell polynomial expansion")
    p_expand.add_argument("kind", choices=("wordBell", "coloredPsi", "mk"))
    p_expand.add_argument("--n", type=int, required=True)
    p_expand.add_argument("--k", type=int)
    p_expand.add_argument("--seq")
    p_expand.add_argument("--format", choices=("json",), default="json")
    p_expand.add_argument("--out")

    p_realize = sub.add_parser("realize", help="emit word polynomial realizations")
    p_realize.add_argument("kind", choices=("phi", "monomial", "cycle", "cycleBell"))
    p_realize.add_argument("--partition", help="JSON blocks, e.g. [[1,3],[2]]")
    p_realize.add_argument("--seq", help="color sequence for colored partitions")
    p_realize.add_argument("--truncation", type=int)
    p_realize.add_argument("--sigma", help="one-line permutation, e.g. 3,1,2")
    p_realize.add_argument("--n", type=int)
    p_realize.add_argument("--k", type=int)
    p_realize.add_argument("--out")

    p_mk = sub.add_parser("mk", help="emit noncommutative Bell polynomials")
    p_mk.add_argument("--n", type=int, required=True)
    p_mk.add_argument("--k", type=int)
    p_mk.add_argument("--out")
    p_mk.set_defaults(kind="mk")  # the same handler as `expand mk`

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--max-n", type=int, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        return _cmd_table(parser, args)
    if args.command in ("expand", "mk"):
        return _cmd_expand(parser, args)
    if args.command == "realize":
        return _cmd_realize(parser, args)
    if args.command == "verify":
        return _cmd_verify(parser, args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
