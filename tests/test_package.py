"""Tests for the package's top level."""

import ast
import subprocess
import sys
from pathlib import Path

import wordbell
from wordbell import bell, cli, combinatorics, realization, symfun, verify

ROOT = Path(__file__).resolve().parents[1]


def _names_read(node) -> set:
    """Every name ``node`` reads, as a Name or as an Attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _package_caches() -> dict:
    # found as the benchmark's cold guard finds them, so a cache that
    # clear_caches does not name is caught here
    return {
        f"{name}.{attr}": obj
        for name, mod in list(sys.modules.items())
        if name.startswith("wordbell")
        for attr, obj in vars(mod).items()
        if hasattr(obj, "cache_info")
    }


def test_clear_caches_empties_every_cache_in_the_package(capsys):
    verify.hopf_suite(3)
    bell.identity_suite("all", 3, 1)
    cli.main(["verify", "all", "--max-n", "3"])
    # the caches those runs leave empty
    combinatorics.bell_number(3)
    symfun.VirtualAlphabet.ones(3).e(2)
    capsys.readouterr()
    caches = _package_caches()
    assert [name for name, c in caches.items() if not c.cache_info().currsize] == []
    assert realization._COMPLETE_SERIES
    wordbell.clear_caches()
    assert [name for name, c in caches.items() if c.cache_info().currsize] == []
    assert not realization._COMPLETE_SERIES


def test_the_cli_starts_without_the_verify_suites_or_dataclasses():
    # a fresh interpreter, as a command-line user starts one; what it loaded
    # before the import (site hooks, say) is not counted
    code = (
        "import sys; before = set(sys.modules)\n"
        "from wordbell import cli; cli.build_parser()\n"
        "lean = set(sys.modules) - before\n"
        "from wordbell import verify\n"
        "print(sorted(lean)); print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    lean, every = map(ast.literal_eval, out.splitlines())
    assert "wordbell.cli" in lean
    assert "wordbell.verify" not in lean and "dataclasses" not in lean
    # with every module of the package loaded, still no dataclasses
    assert "wordbell.verify" in every and "dataclasses" not in every
    # one tuple of suite names, which the CLI offers without verify, names what run_suite runs
    assert verify.SUITES is wordbell.SUITES
    for name in wordbell.SUITES:
        assert verify.run_suite(name, max_n=1)


def test_every_package_definition_is_reached_without_the_tests():
    # the roots: wordbell.__all__, the benchmark's scripts, and the package's
    # own statements outside definitions (the CLI's __main__ guard among them);
    # a reached definition reaches every name in its body.  A name matches
    # any definition of that name, so a name shared between modules errs on
    # the side of "reached"; a definition that reads only itself is not reached
    reached = set(wordbell.__all__)
    unreached = {}
    for path in sorted((ROOT / "src" / "wordbell").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                unreached[f"{path.stem}.{stmt.name}"] = stmt
            else:
                reached |= _names_read(stmt)
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= _names_read(ast.parse(path.read_text()))
    grew = True
    while grew:
        grew = False
        for qualified, stmt in list(unreached.items()):
            if stmt.name in reached:
                reached |= _names_read(stmt)
                del unreached[qualified]
                grew = True
    assert sorted(unreached) == []
