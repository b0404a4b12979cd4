"""Tests for the command line front end: output shapes, determinism, exits."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wordbell.cli import main
from wordbell.combinatorics import FACTORIAL, ColoredSetPartition, SetPartition
from wordbell.lincomb import LinComb, tensor_tag


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "wordbell.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def test_table_lists_column(capsys):
    assert main(["table", "lists", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    values = [int(line.split(",")[1]) for line in out.strip().splitlines()]
    assert values == [1, 1, 3, 13, 73, 501]


def test_table_level2_column(capsys):
    assert main(["table", "level2", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    values = [int(line.split(",")[1]) for line in out.strip().splitlines()]
    assert values == [1, 1, 3, 12, 60, 358]


def test_table_stirling2_minimal(capsys):
    assert main(["table", "stirling2", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partial"] == [[1]]


def test_table_idempotent_entry(capsys):
    assert main(["table", "idempotent", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partial"][3][1] == 24  # row n = 4, column k = 2


def test_table_custom_sequence(capsys):
    assert main(["table", "custom", "3", "--seq", "a=1,2,9,64 tail:tree"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complete"] == [1, 1, 3, 16]


def test_expand_word_bell(capsys):
    assert main(["expand", "wordBell", "--n", "4", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == "Phi"
    assert len(payload["terms"]) == 7


def test_expand_mk(capsys):
    assert main(["expand", "mk", "--n", "1", "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terms"] == [{"key": [1], "num": "1", "den": "1"}]
    assert main(["expand", "mk", "--n", "3", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = {tuple(t["key"]): t["num"] for t in payload["terms"]}
    assert coeffs == {(2, 1): "2", (1, 2): "1"}


def test_expand_colored_psi(capsys):
    assert main(["expand", "coloredPsi", "--n", "3", "--k", "2", "--seq", "idempotent"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == "Psi"
    assert payload["sequence"] == "idempotent"
    assert len(payload["terms"]) == 6


def test_realize_phi_and_cycle(capsys):
    assert main(
        ["realize", "phi", "--partition", "[[1,3],[2]]", "--truncation", "2"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["terms"]) == 4  # two letter choices per block
    assert main(["realize", "cycle", "--sigma", "3,1,2,6,5,4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terms"] == [
        {"key": [[1, 1], [1, 3], [1, 2], [1, 1], [1, 1], [1, 2]], "num": "1", "den": "1"}
    ]


def test_verify_exit_codes():
    result = run_cli(["verify", "mk"])
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    degenerate = run_cli(["verify", "all", "--max-n", "1"])
    assert degenerate.returncode == 0


def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr():
    # about 1.2 MB of JSON, far more than a pipe buffer holds, so the CLI is
    # still writing when the reader closes the pipe
    cmd = [sys.executable, "-m", "wordbell.cli", "expand", "wordBell", "--n", "9"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{"basis":"'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_usage_errors_exit_2():
    assert run_cli(["table", "custom", "4"]).returncode == 2  # missing --seq
    assert run_cli(["table", "custom", "4", "--seq", "oops!!"]).returncode == 2
    assert run_cli(["table", "custom", "4", "--seq", "1,,2"]).returncode == 2
    assert run_cli(["table", "nosuch", "4"]).returncode == 2
    assert run_cli(["expand", "wordBell", "--n", "3", "--k", "9"]).returncode == 2
    # --format is a table option only
    assert run_cli(["expand", "wordBell", "--n", "3", "--format", "json"]).returncode == 2


def test_verify_appendix_rejects_max_n(capsys):
    # the appendix ranges are fixed: a --max-n there is refused, not dropped
    # (verify all --max-n still scales the other suites, test_verify_exit_codes)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "appendix", "--max-n", "3"])
    assert exc.value.code == 2
    assert "fixed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env, bad", [
    (["table", "stirling2", "1_0"], None, "1_0"),
    (["table", "stirling2", "\uff13"], None, "\uff13"),
    (["expand", "wordBell", "--n", "+3"], None, "+3"),
    (["expand", "wordBell", "--n", "3", "--k", "\u0661"], None, "\u0661"),
    (["mk", "--n", "3", "--k", "1_0"], None, "1_0"),
    (["realize", "phi", "--partition", "[[1]]", "--truncation", "0_2"], None, "0_2"),
    (["realize", "cycleBell", "--n", "3 ", "--k", "1"], None, "3 "),
    (["realize", "cycle", "--sigma", "2,1,0_3"], None, "2,1,0_3"),
    (["realize", "cycle", "--sigma", "\u0662,\u0661"], None, "\u0662,\u0661"),
    (["verify", "mk", "--max-n", "0_3"], None, "0_3"),
    (["verify", "mk", "--seed", "1_0"], None, "1_0"),
    (["table", "bell", "3"], "1_2", "1_2"),
])
def test_integers_are_ascii_digits_only(argv, env, bad, monkeypatch, capsys):
    # int() reads 1_0 as 10, +3 as 3 and non-ASCII digits as their values
    if env is not None:
        monkeypatch.setenv("WORDBELL_MAX_DEGREE", env)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert repr(bad) in capsys.readouterr().err


def test_realize_truncation_zero_exit_2():
    result = run_cli(["realize", "phi", "--partition", "[[1,2]]", "--truncation", "0"])
    assert result.returncode == 2
    assert "truncation" in result.stderr and "requires" not in result.stderr


def test_partition_rejects_booleans():
    result = run_cli(["realize", "phi", "--partition", "[[true]]", "--truncation", "2"])
    assert result.returncode == 2
    colored = ["--partition", "[[[1],true]]", "--seq", "1,1,1", "--truncation", "2"]
    assert run_cli(["realize", "phi", *colored]).returncode == 2
    colored[1] = "[[[1],1]]"
    assert run_cli(["realize", "phi", *colored]).returncode == 0


def test_mk_checks_k_like_expand_mk():
    for k in ("7", "-1"):
        result = run_cli(["mk", "--n", "3", "--k", k])
        assert result.returncode == 2
        assert "need 0 <= k <= n" in result.stderr
    assert run_cli(["mk", "--n", "3", "--k", "3"]).returncode == 0


def test_realize_cycle_bell_checks_k():
    assert run_cli(["realize", "cycleBell", "--n", "3", "--k", "9"]).returncode == 2
    assert run_cli(["realize", "cycleBell", "--n", "3", "--k", "-1"]).returncode == 2
    assert run_cli(["realize", "cycleBell", "--n", "3", "--k", "2"]).returncode == 0


def test_unparsable_max_degree_exit_2():
    result = run_cli(["table", "bell", "3"], env={"WORDBELL_MAX_DEGREE": "twelve"})
    assert result.returncode == 2
    assert "WORDBELL_MAX_DEGREE" in result.stderr


def test_max_degree_cap():
    result = run_cli(["table", "bell", "9"], env={"WORDBELL_MAX_DEGREE": "6"})
    assert result.returncode == 2
    result = run_cli(["table", "bell", "6"], env={"WORDBELL_MAX_DEGREE": "6"})
    assert result.returncode == 0


def test_byte_deterministic_output():
    first = run_cli(["expand", "wordBell", "--n", "5", "--k", "3"])
    second = run_cli(["expand", "wordBell", "--n", "5", "--k", "3"])
    assert first.stdout == second.stdout
    va = run_cli(["verify", "appendix"])
    vb = run_cli(["verify", "appendix"])
    assert va.stdout == vb.stdout


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    assert main(["expand", "mk", "--n", "2", "--out", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert len(payload["coefficients"]) == 3


def test_out_file_is_replaced_atomically(tmp_path, monkeypatch):
    target = tmp_path / "table.json"
    target.write_text("stale")
    assert main(["table", "bell", "5", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["complete"] == [1, 1, 2, 5, 15, 52]
    assert os.listdir(tmp_path) == ["table.json"]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(SystemExit) as exc:  # the failed rename is a usage error, not swallowed
        main(["table", "bell", "6", "--out", str(target)])
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == ["table.json"]
    assert json.loads(target.read_text())["complete"] == [1, 1, 2, 5, 15, 52]


def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys):
    # exit 1 means that an identity failed, so a bad --out must not end with it
    (tmp_path / "dir").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "dir"):
        with pytest.raises(SystemExit) as exc:
            main(["table", "bell", "3", "--out", str(target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write --out {target}: " in captured.err
    assert os.listdir(tmp_path) == ["dir"] and os.listdir(tmp_path / "dir") == []


def test_words_are_emitted_as_they_are():
    from wordbell.serialize import sort_key

    # a word of letters, or of integers, is its own sort key: not rebuilt
    for word in (((1, 2), (2, 1)), ((True, 1),), (3, 1, 2), ()):
        assert sort_key(word) is word
    # a tuple that is not a word still recurses, and still refuses what it did
    for key in (((1, (2, 3)),), ((1, 2), (3, "x")), ((1,), 2.5)):
        with pytest.raises(TypeError):
            sort_key(key)


def _reply(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_carries_nothing_between_requests(tmp_path, capsys, monkeypatch):
    from wordbell import bell, cli, munthekaas
    from wordbell.serialize import lincomb_to_jsonable, tpoly_to_jsonable

    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.setattr(cli, "_PARSER", None)  # as in a fresh process

    # an option of the previous request does not fill in a missing one
    assert _reply(["table", "custom", "3", "--seq", "1,2"], capsys)[0] == 0
    code, out, err = _reply(["table", "custom", "3"], capsys)
    assert (code, out) == (2, "") and "requires --seq" in err

    # nor does --out: the same request without it writes to stdout
    target = tmp_path / "reply.json"
    argv = ["expand", "wordBell", "--n", "3"]
    assert _reply([*argv, "--out", str(target)], capsys) == (0, "", "")
    written, stamp = target.read_text(), target.stat().st_mtime_ns
    assert _reply(argv, capsys) == (0, written, "")
    assert target.read_text() == written and target.stat().st_mtime_ns == stamp

    # without --k the reply is the complete polynomial, not the last k's part
    assert _reply(["expand", "wordBell", "--n", "3", "--k", "2"], capsys)[0] == 0
    code, out, _ = _reply(["expand", "wordBell", "--n", "3"], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(lincomb_to_jsonable(bell.word_complete_bell(3))))

    # the mk subcommand keeps its own kind after an expand of another kind
    assert _reply(["expand", "coloredPsi", "--n", "3", "--seq", "tree"], capsys)[0] == 0
    code, out, _ = _reply(["mk", "--n", "3"], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(tpoly_to_jsonable(munthekaas.mb_tpoly(3))))

    # a malformed request leaves the parser able to serve the next one
    code, out, err = _reply(["expand", "wordBell", "--n", "x"], capsys)
    assert (code, out) == (2, "") and "invalid int value" in err
    code, out, _ = _reply(["table", "bell", "5"], capsys)
    assert code == 0 and json.loads(out)["complete"] == [1, 1, 2, 5, 15, 52]

    # the 10 requests above and 40 more: 50 calls of main, one parser built
    for _ in range(40):
        assert _reply(["mk", "--n", "2", "--k", "1"], capsys)[0] == 0
    assert len(built) == 1


def test_suites_report_the_first_counterexample(monkeypatch):
    from wordbell import bell, hopf, verify
    from wordbell.combinatorics import ONES, colored_partitions

    real = bell.eval_partial_bell
    monkeypatch.setattr(bell, "eval_partial_bell", lambda a, n, k: real(a, n, k) + (a is ONES))
    item = verify.bell_suite(max_n=1)[0]
    assert item["status"] == "fail"
    assert item["counterexample"] == {"kind": "stirling2", "n": 0, "k": 0}

    monkeypatch.setattr(hopf, "tensor_swap", lambda x: x * 2)
    items = verify.hopf_suite(max_n=2, sequences=(ONES,))
    item = next(i for i in items if i["identity"].startswith("cocommutativity"))
    first_key = str(colored_partitions(ONES, 0)[0])
    assert item["counterexample"] == {"key": first_key, "side": "Phi cocommutativity"}


# the counterexamples below were recorded before the suites were restructured
def _cp(*parts, seq=FACTORIAL):
    return str(ColoredSetPartition(parts, seq))


def _items(report):
    return {i["identity"].split(" [")[0]: i["counterexample"] for i in report}


def _doubled_from_size(real, size):
    return lambda x: real(x) * (2 if any(k.size >= size for k in x.keys()) else 1)


def test_hopf_suite_first_counterexample_on_the_psi_side(monkeypatch):
    from wordbell import hopf, verify

    # Phi fails from size 3 on and Psi from size 2 on: both sides are checked
    # case by case, so the first counterexample is the earlier Psi case
    real_phi_coproduct = hopf.phi_coproduct
    monkeypatch.setattr(hopf, "phi_coproduct", _doubled_from_size(real_phi_coproduct, 3))
    monkeypatch.setattr(hopf, "psi_coproduct", _doubled_from_size(hopf.psi_coproduct, 2))
    items = _items(verify.hopf_suite(max_n=3, sequences=(FACTORIAL,)))
    one = _cp(((1,), 1))
    assert items["bialgebra compatibility"] == {"left": one, "right": one, "side": "Psi"}
    assert items["cocommutativity and counit"] == {"key": _cp(((1,), 1), ((2,), 1)), "side": "Psi counit"}
    # S is read off the doubled Phi coproduct table, so it is wrong from size 3
    # on, and the axiom fails at the first size-3 atom
    assert items["antipode axiom"] == {"key": _cp(((1, 3), 1), ((2,), 1))}

    # when both sides fail on the same case, Phi is reported
    monkeypatch.setattr(hopf, "phi_coproduct", _doubled_from_size(real_phi_coproduct, 2))
    items = _items(verify.hopf_suite(max_n=3, sequences=(FACTORIAL,)))
    assert items["bialgebra compatibility"] == {"left": one, "right": one, "side": "Phi"}
    assert items["cocommutativity and counit"] == {"key": _cp(((1,), 1), ((2,), 1)), "side": "Phi counit"}


def test_hopf_suite_bialgebra_item_multiplies_through_tensor_multiply(monkeypatch):
    from wordbell import hopf, verify

    real = hopf.tensor_multiply

    def doubled_when_a_leg_of_s_has_size_two(basis):
        def perturbed(s, t, product):
            big = s.basis == basis and any(l.size >= 2 or r.size >= 2 for l, r in s.keys())
            return real(s, t, product) * (2 if big else 1)

        return perturbed

    # the first pair whose left factor has a leg of size two, (2, 1) in sizes
    first = {"left": _cp(((1,), 1), ((2,), 1)), "right": _cp(((1,), 1))}
    for side in (hopf.PHI, hopf.PSI):
        monkeypatch.setattr(hopf, "tensor_multiply", doubled_when_a_leg_of_s_has_size_two(tensor_tag(side)))
        report = verify.hopf_suite(max_n=3, sequences=(FACTORIAL,))
        assert _items(report)["bialgebra compatibility"] == {**first, "side": side}
        assert [i["identity"] for i in report if i["status"] == "fail"] == ["bialgebra compatibility [factorial]"]


def test_hopf_suite_first_counterexample_of_duality(monkeypatch):
    from wordbell import hopf, verify

    real = hopf.psi_product

    def doubled_when_y_has_a_block_of_two(x, y):
        terms = list(real(x, y).items())[::-1]  # z is the first in key order, not in term order
        return LinComb(hopf.PSI, terms) * (2 if any(k.part_count < k.size for k in y.keys()) else 1)

    monkeypatch.setattr(hopf, "psi_product", doubled_when_y_has_a_block_of_two)
    items = _items(verify.hopf_suite(max_n=3, sequences=(FACTORIAL,)))
    assert items["duality adjointness <xy,z> = <x(x)y, Dz>"] == {
        "x": _cp(((1,), 1)),
        "y": _cp(((1, 2), 1)),
        "z": _cp(((1,), 1), ((2, 3), 1)),
    }
    assert items["bialgebra compatibility"] is None

    # a product term outside the basis of its degree is reported, not skipped
    stray = hopf.psi_elem(SetPartition(((1, 2),)))
    monkeypatch.setattr(hopf, "psi_product", lambda x, y: real(x, y) + stray)
    items = _items(verify.hopf_suite(max_n=2, sequences=(FACTORIAL,)))
    assert items["duality adjointness <xy,z> = <x(x)y, Dz>"] == {
        "x": _cp(((1,), 1)),
        "y": _cp(((1,), 1)),
        "z": str(SetPartition(((1, 2),))),
    }


def test_hopf_suite_first_counterexample_of_associativity(monkeypatch):
    from wordbell import hopf, verify

    real = hopf.psi_product

    def doubled_when_x_has_a_nonsingleton_block(x, y):
        # bilinear, so it is the same map however the suite groups its products
        return LinComb(hopf.PSI, (
            (k, cx * cy * c * (2 if kx.part_count < kx.size else 1))
            for kx, cx in x.items()
            for ky, cy in y.items()
            for k, c in real(hopf.psi_elem(kx), hopf.psi_elem(ky)).items()
        ))

    monkeypatch.setattr(hopf, "psi_product", doubled_when_x_has_a_nonsingleton_block)
    items = _items(verify.hopf_suite(max_n=4, sequences=(FACTORIAL,)))
    one, two = _cp(((1,), 1)), _cp(((1, 2), 1))
    # (1,2,1) still associates: both sides double once; (2,1,1) is the first that does not
    assert items["product associativity"] == {"triple": (two, one, one)}
    assert items["duality adjointness <xy,z> = <x(x)y, Dz>"] == {
        "x": two,
        "y": one,
        "z": _cp(((1,), 1), ((2, 3), 1)),
    }
    assert items["bialgebra compatibility"] is None


def test_hopf_suite_first_counterexample_of_the_antipode(monkeypatch):
    from wordbell import hopf, verify

    real = hopf.antipodes
    monkeypatch.setattr(
        hopf, "antipodes",
        lambda coproducts: {k: s * (2 if k.size >= 2 else 1) for k, s in real(coproducts).items()},
    )
    report = verify.hopf_suite(max_n=3, sequences=(FACTORIAL,))
    items = _items(report)
    assert items["antipode axiom"] == {"key": _cp(((1,), 1), ((2,), 1))}
    assert [i["identity"] for i in report if i["status"] == "fail"] == ["antipode axiom [factorial]"]


def test_hopf_suite_antipode_axiom_is_not_the_antipode_recursion(monkeypatch):
    from wordbell import hopf, verify
    from wordbell.combinatorics import ONES

    # the antipode solves sum S(x1) x2 = eps over these same splittings, so that
    # side would still hold; sum x1 S(x2) = eps does not
    real = hopf.part_bipartitions
    monkeypatch.setattr(
        hopf, "part_bipartitions",
        lambda whole: ((l, r) for l, r in real(whole) if (l.part_count, r.part_count) != (1, 2)),
    )
    items = _items(verify.hopf_suite(max_n=4, sequences=(ONES,)))
    assert items["antipode axiom"] == {"key": _cp(((1,), 1), ((2,), 1), ((3,), 1), seq=ONES)}


def test_hopf_suite_antipode_axiom_pins_the_factor_order(monkeypatch):
    from wordbell import hopf, verify
    from wordbell.combinatorics import ONES

    # a key that splits gets S(right) S(left); with the halves swapped it gets
    # S(left) S(right), which the noncommutative Phi product tells apart
    real = hopf._first_split

    def swapped(key):
        split = real(key)
        return None if split is None else split[::-1]

    monkeypatch.setattr(hopf, "_first_split", swapped)
    report = verify.hopf_suite(max_n=4, sequences=(ONES,))
    assert _items(report)["antipode axiom"] == {"key": _cp(((1,), 1), ((2, 3), 1), seq=ONES)}
    assert [i["identity"] for i in report if i["status"] == "fail"] == ["antipode axiom [ones]"]


def test_word_suite_dual_product_is_not_the_interleaving_kernel(monkeypatch):
    import math

    import wordbell
    from wordbell import combinatorics, realization, verify

    # the shuffle and psi_product share this kernel, so a fault in it would
    # hold on both sides; the Phi coproduct does not read it
    real = combinatorics._interleave_gather

    def drops_the_last_of_many(n, m):
        gather = real(n, m)
        return gather if math.comb(n + m, n) <= 2 else lambda word: gather(word)[: -(n + m)]

    wordbell.clear_caches()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(combinatorics, "_interleave_gather", drops_the_last_of_many)
            patched.setattr(realization, "_interleave_gather", drops_the_last_of_many)
            items = _items(verify.word_suite(4))
    finally:
        wordbell.clear_caches()
    assert items["shuffle realization of the dual product"] == {
        "left": str(SetPartition([[1]])),
        "right": str(SetPartition([[1], [2]])),
    }


def test_word_suite_dual_product_keeps_one_letter_per_block(monkeypatch):
    from itertools import product

    from wordbell import realization, verify
    from wordbell.combinatorics import set_partitions

    # each expansion is tagged with its (key, L), so the operands of every
    # shuffle the dual-product item makes name the letter count they were expanded at
    real_expand, real_shuffle = realization.expand_psi, realization.shuffle
    made, shuffled = {}, []

    def tagged(key, L):
        poly = real_expand(key, L)
        made[id(poly)] = (poly, key, L)
        return poly

    def recorded(x, y):
        shuffled.append((made[id(x)][1:], made[id(y)][1:]))
        return real_shuffle(x, y)

    monkeypatch.setattr(realization, "expand_psi", tagged)
    monkeypatch.setattr(realization, "shuffle", recorded)
    verify.word_suite(4)
    pairs = [
        (p1, p2)
        for n1 in range(1, 4)
        for n2 in range(1, 5 - n1)
        for p1, p2 in product(set_partitions(n1), set_partitions(n2))
    ]
    L = {(p1, p2): p1.part_count + p2.part_count for p1, p2 in pairs}
    assert shuffled == [((p1, L[p1, p2]), (p2, L[p1, p2])) for p1, p2 in pairs]


def test_hopf_suite_computes_each_coproduct_and_key_product_once(monkeypatch):
    from collections import Counter

    from wordbell import hopf, verify
    from wordbell.combinatorics import colored_partitions

    calls = Counter()

    def counted(name):
        real = getattr(hopf, name)

        def wrapper(*args):
            calls[name, tuple(tuple(x.keys()) for x in args)] += 1
            return real(*args)

        monkeypatch.setattr(hopf, name, wrapper)

    for name in ("phi_coproduct", "psi_coproduct", "phi_product", "psi_product"):
        counted(name)
    report = verify.hopf_suite(max_n=3)
    assert all(item["status"] == "pass" for item in report)
    assert max(calls.values()) == 1
    keys = sum(len(colored_partitions(seq, n)) for seq in verify.DEFAULT_SEQUENCES for n in range(4))
    per_name = Counter(name for name, _ in calls)
    assert per_name["phi_coproduct"] == per_name["psi_coproduct"] == keys
    assert per_name["phi_product"] > 0 and per_name["psi_product"] > 0


def _swap_t1_t2_at_n3(real):
    def perturbed(n):
        poly = real(n)
        if n != 3:
            return poly
        return [poly[0], poly[2], poly[1], *poly[3:]]

    return perturbed


def test_ladder_items_report_the_first_counterexample(monkeypatch):
    from wordbell import bell, munthekaas, verify

    monkeypatch.setattr(bell, "word_bell_tpoly", _swap_t1_t2_at_n3(bell.word_bell_tpoly))
    items = _items(verify.bell_suite(max_n=4))
    assert items["word Bell polynomials enumerate partitions by blocks"] == {"n": 3, "k": 1}
    items = _items(verify.mk_suite(max_n=4))
    assert items["block-size morphism maps word to noncommutative Bell"] == {"n": 3, "k": 1}
    assert items["triangular polynomial of the complete matrix"] == {"n": 3, "k": 1}
    monkeypatch.undo()

    monkeypatch.setattr(munthekaas, "mb_tpoly", _swap_t1_t2_at_n3(munthekaas.mb_tpoly))
    items = _items(verify.mk_suite(max_n=4))
    assert items["low-degree noncommutative Bell polynomials"] == {"n": 3, "k": 2}
    assert items["block-size morphism maps word to noncommutative Bell"] == {"n": 3, "k": 1}
    assert items["coefficients count partitions by block-size composition"] == {"n": 3, "comp": (2, 1)}
    assert items["Hessenberg path expansion at t = 1"] is None


def test_served_bell_items_report_the_first_counterexample(monkeypatch):
    # the enumerations the CLI serves, each checked against its definition
    from wordbell import bell, verify
    from wordbell.lincomb import LinComb

    def failures():
        return {i["identity"]: i["counterexample"] for i in verify.bell_suite(max_n=4) if i["status"] == "fail"}

    real_word = bell.word_partial_bell

    def word_without_last_key_at_4_2(n, k):
        out = real_word(n, k)
        return LinComb(out.basis, list(out.items())[:-1]) if (n, k) == (4, 2) else out

    monkeypatch.setattr(bell, "word_partial_bell", word_without_last_key_at_4_2)
    assert failures() == {"word Bell polynomials enumerate partitions by blocks": {"n": 4, "k": 2}}
    monkeypatch.undo()

    real_keys = bell.colored_partitions_k

    def keys_without_the_last_at_k_2(seq, n, k):
        keys = real_keys(seq, n, k)
        return keys[:-1] if k == 2 else keys

    monkeypatch.setattr(bell, "colored_partitions_k", keys_without_the_last_at_k_2)
    assert failures() == {
        "colored dual Bell polynomials enumerate colored partitions": {"seq": "factorial", "n": 2, "k": 2}
    }


def test_word_suite_first_counterexample_on_the_psi_family(monkeypatch):
    from wordbell import bell, verify

    real = bell.shuffle_partial_bell
    calls = []

    def second_call_at_3_2_doubled(family, n, k):
        out = real(family, n, k)
        if (n, k) == (3, 2):
            calls.append(family)
            if len(calls) == 2:  # Phi is checked first, then Psi
                return out * 2
        return out

    monkeypatch.setattr(bell, "shuffle_partial_bell", second_call_at_3_2_doubled)
    items = _items(verify.word_suite(max_n=3))
    assert items["shuffle Bell polynomials of the distinguished families"] == {"n": 3, "k": 2, "family": "Psi"}


def test_appendix_suite_reports_the_first_counterexample(monkeypatch):
    from wordbell import verify

    real = verify.eval_partial_bell
    monkeypatch.setattr(verify, "eval_partial_bell", lambda a, n, k: real(a, n, k) + 1)
    items = {i["identity"]: i for i in verify.appendix_suite()}
    assert items["idempotent-number evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["tree-function evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["binomial splitting of partial Bell"]["counterexample"] == {"n": 0, "k1": 0, "k2": 0}


def test_appendix_suite_first_counterexample_of_the_scaled_complete_item(monkeypatch):
    from wordbell import verify

    real = verify.eval_partial_bell
    wrong = ((5, 2), (6, 1), (7, 3))
    monkeypatch.setattr(verify, "eval_partial_bell", lambda a, n, k: real(a, n, k) + ((n, k) in wrong))
    items = {i["identity"]: i["counterexample"] for i in verify.appendix_suite()}
    assert items["partial Bell as scaled complete function"] == {"n": 5, "k": 2, "lhs": "-9", "rhs": "-10"}


def _diagram_items(report):
    return {i["identity"]: i["counterexample"] for i in report if i["identity"].startswith(("diagram", "gamma"))}


def test_bell_suite_diagram_items_first_counterexamples(monkeypatch):
    from wordbell import bell, verify

    real = bell.gamma

    def off_by_one_on_a_recolored_pair(x):
        # keys of size 3 or 4 with a block of size 2 in color 2: none exist over ONES
        return real(x) + any(
            k.size in (3, 4) and any(len(b) == 2 and c == 2 for b, c in k.parts) for k in x.keys()
        )

    monkeypatch.setattr(bell, "gamma", off_by_one_on_a_recolored_pair)
    assert _diagram_items(verify.bell_suite(max_n=4)) == {
        "diagram h_n -> A_n(a)/n! [ones]": None,
        "diagram h_n -> A_n(a)/n! [factorial]": {"n": 3, "route": "materialized", "got": "19/6"},
        "diagram h_n -> A_n(a)/n! [shifted-factorial]": None,
        "diagram h_n -> A_n(a)/n! [idempotent]": {"n": 3, "route": "materialized", "got": "8/3"},
        "diagram h_n -> A_n(a)/n! [random rational #1]": None,
        "diagram h_n -> A_n(a)/n! [random rational #2]": None,
        "gamma multiplicative [ones]": None,
        # the second key of size 2 over FACTORIAL, after the block {1,2} in color 1
        "gamma multiplicative [factorial]": {"left": "(((1,), 1),)", "right": "(((1, 2), 2),)"},
        "gamma multiplicative [shifted-factorial]": None,
        "gamma multiplicative [idempotent]": {"left": "(((1,), 1),)", "right": "(((1, 2), 2),)"},
    }


def test_bell_suite_draws_the_random_diagram_data_from_its_seed(monkeypatch):
    from wordbell import bell, verify
    from wordbell.combinatorics import ColorSequence

    real = bell.gamma_beta

    def off_by_one_on_random_data_from_size_3(x, a):
        return real(x, a) + (not isinstance(a, ColorSequence) and any(k.size >= 3 for k in x.keys()))

    monkeypatch.setattr(bell, "gamma_beta", off_by_one_on_random_data_from_size_3)
    at_zero = _diagram_items(verify.bell_suite(seed=0))["diagram h_n -> A_n(a)/n! [random rational #1]"]
    at_five = _diagram_items(verify.bell_suite(seed=5))["diagram h_n -> A_n(a)/n! [random rational #1]"]
    assert at_zero == {"n": 3, "a": ["0", "-2", "1/2", "0", "1/3", "3/2", "1"], "got": "13/12"}
    assert at_five["a"] == ["1", "5/3", "6", "1/2", "4", "-4", "-1/4"]


def test_bell_suite_gamma_item_multiplies_through_the_hopf_module(monkeypatch):
    from wordbell import hopf, verify

    real = hopf.psi_product
    monkeypatch.setattr(hopf, "psi_product", lambda x, y: real(x, y) * 2)
    items = _diagram_items(verify.bell_suite(max_n=3))
    assert items["gamma multiplicative [ones]"] == {"left": "(((1,), 1),)", "right": "(((1,), 1),)"}


def test_a_failing_item_runs_no_case_after_its_first_counterexample(monkeypatch):
    from wordbell import munthekaas, verify

    real = munthekaas.p_triangular
    calls = []

    def counted_and_doubled(entry, n):
        calls.append(n)
        return [c * 2 for c in real(entry, n)]

    monkeypatch.setattr(munthekaas, "p_triangular", counted_and_doubled)
    items = _items(verify.mk_suite(max_n=6))
    assert items["triangular polynomial of the complete matrix"] == {"n": 1, "k": 1}
    assert calls == [1]


def test_small_max_n_ranges_state_the_bound_that_was_checked(monkeypatch):
    from wordbell import bell, realization, verify
    from wordbell.combinatorics import ONES

    # the classical item checks n <= min(max_n + 2, 8): wrong at that n fails it, one past passes
    real_bell = bell.eval_partial_bell
    for wrong_n, status in ((4, "fail"), (5, "pass")):
        monkeypatch.setattr(
            bell, "eval_partial_bell", lambda a, n, k, w=wrong_n: real_bell(a, n, k) + (a is ONES and n == w)
        )
        item = verify.bell_suite(max_n=2)[0]
        assert (item["identity"], item["range"], item["status"]) == (
            "classical specializations of B_{n,k}", "n <= 4", status
        )
    monkeypatch.undo()

    # the injectivity item is the one that expands at L = 4, here up to n = 3
    real_expand = realization.expand_phi
    sizes = []

    def recorded(key, L):
        if L == 4:
            sizes.append(key.size)
        return real_expand(key, L)

    monkeypatch.setattr(realization, "expand_phi", recorded)
    item = verify.word_suite(max_n=3)[0]
    assert (item["identity"], item["range"]) == ("realization is injective on basis keys", "n <= 3, L = 4")
    assert max(sizes) == 3


# sha256 of stdout, recorded before the refactors that must leave output unchanged
GOLDEN_STDOUT = {
    "verify all": "8ed0d3aa30e376f9771812fe5469e0aea54a236fb99a1619d44c9a5135beebab",
    "verify mk": "517a874466f19c522ecc3aaafaf21c8bf73a3213fede2744a7bcc8137a21388e",
    "verify appendix": "be96826f008e3186ed78bab93454aa2cf1607b0e8aaa460ed338fbe878429faf",
    "table stirling2 12": "d49eb0cd517b8bba5234d083269181d6d0e256cb6ef3224f62549d12ba8d6e30",
    "expand wordBell --n 6": "1d506a7a1aad02179474246509cb6bbdcf7c8c203d3512ba52168b7c1f1aa973",
    "realize phi --partition [[1,3],[2]] --truncation 2":
        "36523ba0a993be50bc993db1694fcd20e5d43b6446452a5a272d44b9f71714b9",
    "realize cycleBell --n 6 --k 3": "0fe24ed49a4553e7d82076e4424213cb8f6795314b7a5b28fbf856b72089c837",
    "realize cycleBell --n 8 --k 4": "dde5d8d4e1903159061c4f6952186a99c08c80026daf6f4c91f95ebbe899d2dd",
    "realize cycle --sigma 3,2,4,1,5,8,6,7": "fe04788f23d7175c475b46c0be537ab489716b86d5548843caac2faa0030a886",
    "expand coloredPsi --n 5 --seq tree": "6f95627749ba7566100dcfdfe7ede5c87cef08d45330acaeec3160186a1acdc6",
    "expand coloredPsi --n 4 --k 2 --seq factorial":
        "64a3ce401b326508df2286717c42e9146b5dbb1210685420bf0a3d99efd77a71",
    "expand mk --n 5": "847b5beda9ad5e1e68cd1d19f38714d51fb054aebbf0bfd02ca04103d4606cc3",
    "verify hopf --max-n 5": "49b345565cbeae9e9384d7e4d991acdaf1cb89550ad7b2eb634d10f77ade5af7",
    "mk --n 5": "847b5beda9ad5e1e68cd1d19f38714d51fb054aebbf0bfd02ca04103d4606cc3",
    "mk --n 4 --k 2": "75064f49e01d8c86974da03c5cfaf19040d604e19c5796bd485c5d9a14e24d9c",
    "expand wordBell --n 8 --k 3": "82e175b29f49772af5dab92fcc05ffa73c25c37cc92f62e2fea6932717a678ee",
    "expand coloredPsi --n 6 --k 3 --seq factorial":
        "8bc76dd6bdcef63cba3fda26fd890081a80abb08edc79d48fde4fafb07ad0e7b",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command):
    result = subprocess.run(
        [sys.executable, "-m", "wordbell.cli", *command.split()], capture_output=True
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_STDOUT[command]


def test_golden_stdout_in_one_process(capsys):
    # one process serves every command in turn, as a long-lived caller does
    for command in sorted(GOLDEN_STDOUT):
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command], command
