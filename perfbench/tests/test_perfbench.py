"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import session  # noqa: E402
import worker  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}
PER_LAYER = (
    [f"realization.shuffle.{s}" for s in ("calls", "self_s", "word_pairs", "terms_out")]
    + ["realization.series_shuffle_power.self_s", "realization.complete_s.self_s", "realization.self_s"]
    + ["bell.mixed_bell_series.self_s", "bell.mixed_bell_series.cache_hit_ratio"]
    + ["lincomb.LinComb.__add__.calls", "lincomb.LinComb.__add__.self_s", "lincomb.self_s"]
    + [f"combinatorics.{f}.{s}" for f in ("part_bipartitions", "interleave_keys", "colored_partitions")
       for s in ("calls", "self_s", "keys_out")]
    + ["combinatorics.set_partitions.cache_hit_ratio", "combinatorics.self_s"]
    + [f"hopf.{f}.{s}" for f in ("phi_product", "phi_coproduct", "psi_product", "psi_coproduct",
                                 "tensor_multiply", "antipode") for s in ("calls", "self_s", "terms_out")]
    + ["hopf.self_s", "bell.eval_partial_bell.calls", "bell.eval_partial_bell.self_s",
       "bell.word_bell_tpoly.self_s", "bell.colored_psi_bell.self_s",
       "combinatorics.int_partitions.cache_hit_ratio",
       "serialize.lincomb_to_jsonable.self_s", "serialize.lincomb_to_jsonable.bytes_out",
       "cli.self_s", "munthekaas.self_s", "trace.overhead_s"]
)
LAYERS = ("combinatorics", "lincomb", "hopf", "realization", "bell", "munthekaas", "serialize", "cli", "verify")


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced tiny run per workload."""
    out = {}
    for workload in worker.WORKLOADS:
        for traced in (False, True):
            out[workload, traced] = run.run_benchmark(workload, seed=1, seconds=0, traced=traced, size="tiny")
    return out


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(runs, workload):
    conditions, result = runs[workload, False]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert conditions["cold"] is True and conditions["seed"] == 1
    assert {"src_sha256", "python", "nproc", "git_sha"} <= set(conditions)


@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_traced_run_emits_per_layer_metrics(runs, workload):
    _, result = runs[workload, True]
    metrics = result["metrics"]
    assert set(PER_LAYER) <= set(metrics)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0 < layer_self <= metrics["trace.wall_s"]["value"]
    assert result["correct"]


def test_hopf_axioms_makes_no_word_shuffles(runs):
    metrics = runs["hopf-axioms", True][1]["metrics"]
    assert metrics["realization.shuffle.calls"]["value"] == 0
    assert metrics["hopf.phi_coproduct.calls"]["value"] > 0


def test_word_identities_time_sits_in_realization(runs):
    metrics = runs["word-identities", True][1]["metrics"]
    assert metrics["realization.shuffle.calls"]["value"] > 0
    own = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
    assert max(own, key=own.get) == "realization"


def _corrupt(text: str) -> str:
    digit = next(i for i, ch in enumerate(text) if ch.isdigit() and ch != "1")
    return text[:digit] + "1" + text[digit + 1:]


def test_corrupted_reply_raises_failed_frac(monkeypatch):
    monkeypatch.setenv("WORDBELL_MAX_DEGREE", "20")
    stream = session.make_stream(3, 24)
    replies = list(worker.serve(stream))
    assert worker.check_session(replies, None)[0] == 0
    for i, (argv, code, out, seconds) in enumerate(replies):
        if code == 0 and any(ch.isdigit() and ch != "1" for ch in out):
            bad = list(replies)
            bad[i] = (argv, code, _corrupt(out), seconds)
            failed, problems = worker.check_session(bad, None)
            assert failed / len(stream) > 0, argv
            assert problems


def test_times_are_scaled_by_the_probes_near_them():
    speed = worker.Speed()
    speed.probes = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 4.0), (20.0, 5.0)]
    speed.requests = [(0.9, 1.1), (5.0, 6.0), (20.5, 21.0)]
    # Within the window of the first request, and the neighbours of the others.
    assert speed.per_request() == pytest.approx([2.0, 3.5, 5.0])
    # The second pass ran at half speed throughout, so it scales to the same
    # times as the first.
    fast = {"latencies_s": [1.0, 2.0], "probe_s": [0.1, 0.1]}
    slow = {"latencies_s": [2.0, 4.0], "probe_s": [0.2, 0.2]}
    assert run.request_times([fast, slow, slow]) == pytest.approx([1.0 * run.REF_PROBE_S / 0.1, 2.0 * run.REF_PROBE_S / 0.1])
    with pytest.raises(run.BenchError):
        run.request_times([fast, {"latencies_s": [1.0], "probe_s": [0.1]}])


def test_probe_handler_time_is_not_charged_to_the_request():
    def spin():
        until = time.perf_counter() + 3 * worker.PROBE_PERIOD_S
        while time.perf_counter() < until:
            pass

    speed = worker.Speed(sample=True)
    with speed:
        _, seconds = speed.timed(spin)
    start, end = speed.requests[0]
    inside = [(a, b) for a, b in speed.pauses if start <= a and b <= end]
    assert inside and len(speed.probes) >= len(inside)
    assert seconds == pytest.approx(end - start - sum(b - a for a, b in inside))


def test_malformed_request_must_exit_2():
    argv = ["expand", "wordBell", "--n", "3", "--k", "5"]
    assert session.check_reply(argv, 2, "") is None
    assert session.check_reply(argv, 0, "") is not None


def test_digest_catches_what_the_oracles_allow(monkeypatch):
    monkeypatch.setenv("WORDBELL_MAX_DEGREE", "20")
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    stream = session.make_stream(worker.DIGEST_SEED, worker.SIZES["full"]["cli-session"])
    argv = next(a for a in stream if a[0] == "expand" and not session.is_malformed(a))
    [(argv, code, out, seconds)] = worker.serve([argv])
    assert worker.check_session([(argv, code, out, seconds)], expected["digests"])[0] == 0
    reformatted = json.dumps(json.loads(out), indent=1) + "\n"
    assert session.check_reply(argv, code, reformatted) is None
    assert worker.check_session([(argv, code, reformatted, seconds)], expected["digests"])[0] == 1


def test_verify_item_check():
    expected = [["a", "n=1"], ["b", "n=2"]]
    report = [{"identity": "a", "range": "n=1", "status": "pass"},
              {"identity": "b", "range": "n=2", "status": "pass"}]
    assert worker.check_items(report, expected) == 0
    assert worker.check_items(report[:1], expected) == 1
    assert worker.check_items([report[0], dict(report[1], status="fail")], expected) == 1
    assert worker.check_items([report[0], dict(report[1], range="n=3")], expected) == 1


def test_cold_guard_sees_a_warm_cache():
    from wordbell import combinatorics

    combinatorics.set_partitions(3)
    try:
        with pytest.raises(RuntimeError):
            worker.cold_guard()
    finally:
        combinatorics.set_partitions.cache_clear()


def test_stream_is_seeded():
    a = session.make_stream(5, 240)
    assert a == session.make_stream(5, 240) and a != session.make_stream(6, 240)
    assert sum(session.is_malformed(x) for x in a) == session.MALFORMED
    assert len({json.dumps(x) for x in a}) < len(a)  # sizes repeat


def test_oracles_agree_with_each_other():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert session.partial_bell("ones", n, k) == session.stirling2(n, k)
            assert session.partial_bell("shifted-factorial", n, k) == session.stirling1(n, k)
            assert session.partial_bell("factorial", n, k) == session.lah(n, k)
            assert session.partial_bell("idempotent", n, k) == session.idempotent(n, k)
    assert [session.complete_bell("factorial", n) for n in range(6)] == [1, 1, 3, 13, 73, 501]
    assert [session.complete_bell("1,2,9,64 tail:tree", n) for n in range(4)] == [1, 1, 3, 16]
