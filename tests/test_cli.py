"""Tests for the command line front end: output shapes, determinism, exits."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wordbell.cli import main
from wordbell.combinatorics import FACTORIAL, ColoredSetPartition, SetPartition
from wordbell.lincomb import LinComb


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


def test_usage_errors_exit_2():
    assert run_cli(["table", "custom", "4"]).returncode == 2  # missing --seq
    assert run_cli(["table", "custom", "4", "--seq", "oops!!"]).returncode == 2
    assert run_cli(["table", "nosuch", "4"]).returncode == 2
    assert run_cli(["expand", "wordBell", "--n", "3", "--k", "9"]).returncode == 2


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
    assert items["antipode axiom"] is None

    # when both sides fail on the same case, Phi is reported
    monkeypatch.setattr(hopf, "phi_coproduct", _doubled_from_size(real_phi_coproduct, 2))
    items = _items(verify.hopf_suite(max_n=3, sequences=(FACTORIAL,)))
    assert items["bialgebra compatibility"] == {"left": one, "right": one, "side": "Phi"}
    assert items["cocommutativity and counit"] == {"key": _cp(((1,), 1), ((2,), 1)), "side": "Phi counit"}


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

    monkeypatch.setattr(hopf, "antipode", _doubled_from_size(hopf.antipode, 2))
    report = verify.hopf_suite(max_n=3, sequences=(FACTORIAL,))
    items = _items(report)
    assert items["antipode axiom"] == {"key": _cp(((1,), 1), ((2,), 1))}
    assert [i["identity"] for i in report if i["status"] == "fail"] == ["antipode axiom [factorial]"]


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

    for name in ("phi_coproduct", "psi_coproduct", "psi_product"):
        counted(name)
    report = verify.hopf_suite(max_n=3)
    assert all(item["status"] == "pass" for item in report)
    assert max(calls.values()) == 1
    keys = sum(len(colored_partitions(seq, n)) for seq in verify.DEFAULT_SEQUENCES for n in range(4))
    per_name = Counter(name for name, _ in calls)
    assert per_name["phi_coproduct"] == per_name["psi_coproduct"] == keys
    assert per_name["psi_product"] > 0


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
    items = _items(verify.word_suite(max_n=3, max_k=1))
    assert items["shuffle Bell polynomials of the distinguished families"] == {"n": 3, "k": 2, "family": "Psi"}


def test_appendix_suite_reports_the_first_counterexample(monkeypatch):
    from wordbell import symfun

    real = symfun.eval_partial_bell
    monkeypatch.setattr(symfun, "eval_partial_bell", lambda a, n, k: real(a, n, k) + 1)
    items = {i["identity"]: i for i in symfun.appendix_suite()}
    assert items["idempotent-number evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["tree-function evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["binomial splitting of partial Bell"]["counterexample"] == {"n": 0, "k1": 0, "k2": 0}


def test_appendix_suite_first_counterexample_of_the_scaled_complete_item(monkeypatch):
    from wordbell import symfun

    real = symfun.eval_partial_bell
    wrong = ((5, 2), (6, 1), (7, 3))
    monkeypatch.setattr(symfun, "eval_partial_bell", lambda a, n, k: real(a, n, k) + ((n, k) in wrong))
    items = {i["identity"]: i["counterexample"] for i in symfun.appendix_suite()}
    assert items["partial Bell as scaled complete function"] == {"n": 5, "k": 2, "lhs": "-9", "rhs": "-10"}


def test_morphism_diagram_report_first_counterexamples(monkeypatch):
    from wordbell import bell
    from wordbell.combinatorics import ONES

    real = bell.gamma

    def off_by_one_on_a_recolored_pair(x):
        # keys of size 3 or 4 with a block of size 2 in color 2: none exist over ONES
        return real(x) + any(
            k.size in (3, 4) and any(len(b) == 2 and c == 2 for b, c in k.parts) for k in x.keys()
        )

    monkeypatch.setattr(bell, "gamma", off_by_one_on_a_recolored_pair)
    report = bell.morphism_diagram_report(max_n=4, sequences=(ONES, FACTORIAL), rational_trials=1, pair_max=4)
    assert {i["identity"]: i["counterexample"] for i in report} == {
        "diagram h_n -> A_n(a)/n! [ones]": None,
        "diagram h_n -> A_n(a)/n! [factorial]": {"n": 3, "route": "materialized", "got": "19/6"},
        "diagram h_n -> A_n(a)/n! [random rational #1]": None,
        "gamma multiplicative [ones]": None,
        # the second key of size 2 over FACTORIAL, after the block {1,2} in color 1
        "gamma multiplicative [factorial]": {"left": "(((1,), 1),)", "right": "(((1, 2), 2),)"},
    }


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
