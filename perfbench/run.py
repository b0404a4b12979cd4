"""The wordbell benchmark: cold-start workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload word-identities --seed 0 --seconds 40 --trace 0

Every pass is a fresh interpreter (perfbench/worker.py), so the package's
caches start cold as they do for a command-line user.  One client sends one
request at a time (closed loop).  With ``--trace 0`` the run repeats
untraced passes for ``--seconds``.  Every timing is scaled to a reference
host speed by the speed probes taken during and around it in the same process
(see ``request_times``).  Each request's scaled time is its median over the
passes; ``wall_s`` is their sum and the latency percentiles are taken over
them; ``setup_s`` is the median scaled set-up time.  With ``--trace 1`` the
run alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is the result, with the metrics that BENCHMARK.json
names; the line before it records the conditions (seed, source digest,
Python, CPUs, pass counts, speed probes).  Exits 1 without a result when a
pass cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import COUNTERS, GENERATOR_COUNT  # noqa: E402
from worker import WORKLOADS  # noqa: E402

MIN_PASSES = 3
# Seconds of one speed probe (worker.Speed) at the reference speed, about
# that of the baseline host when it is quiet.  Timings are reported as
# seconds at this speed.
REF_PROBE_S = 0.005
SETUP_INTERPRETERS = 9
# Every run must end within 180 s; passes are cut off well before that.
DEADLINE_S = 170.0
# Per-layer stats that count work; they must repeat exactly between passes.
COUNT_STATS = {"calls", GENERATOR_COUNT, *(stat for stats, _, _ in COUNTERS.values() for stat in stats)}


class BenchError(RuntimeError):
    pass


def _worker(workload: str, seed: int, traced: bool, size: str, deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        # Fixed hashing keeps the traced counts identical from pass to pass.
        PYTHONHASHSEED="0",
        # The cli-session stream asks for tables up to nmax 20.
        WORDBELL_MAX_DEGREE="20",
    )
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced)), size]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _passes(run_one, until: float, min_passes: int) -> list:
    """Call run_one until the next call would likely end after ``until``."""
    out, longest = [], 0.0
    while True:
        t = time.perf_counter()
        out.append(run_one())
        longest = max(longest, time.perf_counter() - t)
        if len(out) >= min_passes and time.perf_counter() + longest > until:
            return out


def p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def request_times(passes: list[dict]) -> list[float]:
    """Each request's time at the reference speed, as a median over passes.

    Every pass of a run sends the same requests in the same order from the
    same cold start, so request i does the same work in each.  The host's
    speed drifts by tens of percent, within seconds and over minutes; each
    time is scaled by REF_PROBE_S over the mean speed probe taken during and
    around that request in the same process, which takes most of that drift
    out.
    """
    counts = {len(p["latencies_s"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"the passes sent different numbers of requests: {sorted(counts)}")
    scaled = [[t * REF_PROBE_S / c for t, c in zip(p["latencies_s"], p["probe_s"])] for p in passes]
    return [statistics.median(times) for times in zip(*scaled)]


def _end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    times = request_times(passes)
    return {
        "wall_s": sum(times),
        "setup_s": statistics.median(p["setup_s"] * REF_PROBE_S / p["setup_probe_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_p95_ms": 1000 * p95(times),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced passes' times; counts, which must repeat exactly."""
    problems = []
    figures = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name.rsplit(".", 1)[1] in COUNT_STATS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            figures[name] = values[0]
        else:
            figures[name] = statistics.median(values)
    figures["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    figures["trace.overhead_s"] = sum(request_times(traced)) - sum(request_times(untraced))
    return figures, problems


def _conditions(workload: str, seed: int, traced: bool) -> dict:
    src = ROOT / "src" / "wordbell"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "cold": True,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> tuple[dict, dict]:
    """Run one benchmark run; return (conditions, result)."""
    if not (ROOT / "src" / "wordbell" / "cli.py").is_file():
        raise BenchError(f"no wordbell sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    conditions = _conditions(workload, seed, traced)

    def one(w: str, t: bool) -> dict:
        return _worker(w, seed, t, size, deadline)

    one("setup", False)  # byte-compiles the package before anything is timed
    setups = [one("setup", False) for _ in range(SETUP_INTERPRETERS)]
    if traced:
        pairs = _passes(lambda: (one(workload, False), one(workload, True)), start + seconds, 1)
        untraced = [u for u, _ in pairs]
        passes = untraced + [t for _, t in pairs]
        figures, problems = _per_layer(untraced, [t for _, t in pairs])
        wanted = spec["per_layer"]
        conditions["traced_passes"] = len(pairs)
    else:
        passes = _passes(lambda: one(workload, False), start + seconds, MIN_PASSES)
        figures, problems = _end_to_end(passes, setups + passes), []
        wanted = spec["end_to_end"]
        times = request_times(passes)
        tail = p95(times)
        conditions["latency_samples"] = len(times)
        conditions["latency_samples_beyond_p95"] = sum(x > tail for x in times)
        conditions["unscaled_wall_s"] = statistics.median(p["wall_s"] for p in passes)
        conditions["probe_s"] = statistics.median(c for p in passes for c in p["probe_s"])
        conditions["ref_probe_s"] = REF_PROBE_S
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems += [x for p in passes for x in p["problems"]]
    conditions.update(
        passes=len(passes),
        setup_samples=len(setups) + len(passes),
        failed_frac=failed / attempted,
        problems=problems[:20],
    )
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise BenchError(f"the run gave no value for {missing}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return conditions, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        conditions, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(conditions, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
