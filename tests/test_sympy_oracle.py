"""Classical Bell polynomials checked against sympy, an oracle outside wordbell.

sympy is a test-only dependency; the module is skipped where it is missing.
"""

import json
import math

import pytest

from wordbell.bell import partial_bell_poly
from wordbell.cli import main

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402


def _to_sympy(poly, xs):
    total = sympy.Integer(0)
    for mono, coeff in poly.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for i, e in enumerate(mono):
            term *= xs[i] ** e
        total += term
    return total


def test_partial_bell_poly_matches_sympy():
    xs = sympy.symbols("x1:11")
    for n in range(11):
        for k in range(n + 1):
            want = sympy.bell(n, k, xs[: n - k + 1]) if n else sympy.Integer(int(k == 0))
            assert sympy.expand(_to_sympy(partial_bell_poly(n, k), xs) - want) == 0


def _table(capsys, kind, nmax):
    assert main(["table", kind, str(nmax)]) == 0
    return json.loads(capsys.readouterr().out)["partial"]


@pytest.mark.parametrize(
    "kind, oracle",
    [
        ("stirling2", lambda n, k: stirling(n, k, kind=2)),
        ("stirling1", lambda n, k: stirling(n, k, kind=1)),
        ("lah", lambda n, k: sympy.bell(n, k, [math.factorial(i) for i in range(1, n - k + 2)])),
        ("idempotent", lambda n, k: sympy.bell(n, k, list(range(1, n - k + 2)))),
    ],
)
def test_tables_match_sympy(capsys, kind, oracle):
    rows = _table(capsys, kind, 12)
    for n, row in enumerate(rows, start=1):
        assert row == [int(oracle(n, k)) for k in range(1, n + 1)]
