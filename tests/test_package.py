"""Tests for the package's top level."""

import sys

import wordbell
from wordbell import bell, cli, combinatorics, realization, symfun, verify


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
