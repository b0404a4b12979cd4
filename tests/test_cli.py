"""Tests for the command line front end: output shapes, determinism, exits."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wordbell.cli import main


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
    try:
        main(["table", "bell", "6", "--out", str(target)])
    except OSError:
        pass
    else:
        raise AssertionError("the failed rename was swallowed")
    assert os.listdir(tmp_path) == ["table.json"]
    assert json.loads(target.read_text())["complete"] == [1, 1, 2, 5, 15, 52]


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


def test_appendix_suite_reports_the_first_counterexample(monkeypatch):
    from wordbell import symfun

    real = symfun.eval_partial_bell
    monkeypatch.setattr(symfun, "eval_partial_bell", lambda a, n, k: real(a, n, k) + 1)
    items = {i["identity"]: i for i in symfun.appendix_suite()}
    assert items["idempotent-number evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["tree-function evaluation"]["counterexample"] == {"n": 1, "k": 1}
    assert items["binomial splitting of partial Bell"]["counterexample"] == {"n": 0, "k1": 0, "k2": 0}


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
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command):
    result = subprocess.run(
        [sys.executable, "-m", "wordbell.cli", *command.split()], capture_output=True
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_STDOUT[command]
