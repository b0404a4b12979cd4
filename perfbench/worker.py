"""One cold pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py <workload|setup> <seed> <trace 0|1> <size>

run.py starts it with ``src`` on PYTHONPATH.  It prints one JSON object: the
set-up time, the pass's wall time, per-request latencies (in a verify workload
a request is one suite call, or one family of identities), the host speed
measured around each request (see ``Speed``), peak RSS, the attempted and
failed operation counts and, when traced, the per-layer figures.  Only
``sys`` and ``time`` are imported before the set-up clock starts, so set-up
pays for every module that importing wordbell loads.
"""

import sys
import time

T0 = time.perf_counter()

WORKLOADS = ("word-identities", "hopf-axioms", "cli-session")
# Parameters per size: "full" is the benchmark, "tiny" is for its own tests.
SIZES = {
    "full": {"word-identities": (5, 2), "hopf-axioms": 5, "cli-session": 240},
    "tiny": {"word-identities": (3, 1), "hopf-axioms": 2, "cli-session": 24},
}
# The word-identity families, in the order identity_suite("all") runs them.
FAMILIES = ("completeToS", "binomiality", "convolution", "composition")
# Iterations of one speed probe: about 5 ms on the baseline host when quiet.
PROBE_ITERS = 400
# Seconds between two probes that the interval timer starts in an untraced pass.
PROBE_PERIOD_S = 0.2
# A request's speed is the mean of the probes within this many seconds of it.
PROBE_WINDOW_S = 0.1
# Probes whose median is the speed right after set-up (about 0.1 s of them).
SETUP_SPEED_PROBES = 20
# cli-session requests between two probes taken by hand.
PROBE_GROUP = 20
# The default seed's replies are also checked against recorded digests.
DIGEST_SEED = 0


def setup() -> float:
    """Import the package and build the CLI parser, as a CLI user does."""
    from wordbell import cli

    cli.build_parser()
    return time.perf_counter() - T0


def cold_guard() -> None:
    """Every cache in the package (``set_partitions`` and every other
    ``lru_cache``, and ``_COMPLETE_SERIES``) is empty: the pass starts as a
    CLI user's does."""
    from wordbell import realization

    if realization._COMPLETE_SERIES:
        raise RuntimeError("realization._COMPLETE_SERIES is warm before the pass")
    for name, mod in list(sys.modules.items()):
        if name.startswith("wordbell"):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and obj.cache_info().currsize:
                    raise RuntimeError(f"{name}.{attr} cache is warm before the pass")


class Speed:
    """The host's speed, probed in the worker's own process.

    The host's speed drifts by tens of percent within seconds, so a request's
    time says little unless the speed during it is known.  A probe is a fixed
    piece of Python work of the kind the workloads do -- Fraction sums in a
    dict keyed by small tuples -- that calls no wordbell code, so a change to
    the program cannot move it; only the host's speed does.

    Probes are taken by hand between requests and, inside ``with speed:``
    when ``sample`` is set, from a SIGALRM handler every PROBE_PERIOD_S
    seconds, also in the middle of a request.  ``timed`` subtracts the
    handler's runs from the request they interrupted.  ``per_request`` gives
    for each timed request the mean probe time during and near it.  Traced
    passes do not sample: the handler's time would be charged to whatever
    span it interrupted.
    """

    def __init__(self, sample: bool = False):
        self.sample = sample
        self.probes: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.requests: list[tuple[float, float]] = []  # (start, end)
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each SIGALRM handler run
        self._busy = False

    def probe(self) -> None:
        import gc

        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            from fractions import Fraction

            start = time.perf_counter()
            acc = {}
            for i in range(PROBE_ITERS):
                word = (i % 3, i % 5, i % 7)
                for j in range(3):
                    key = word[:j] + (i % 4,) + word[j:]
                    acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, j + 2)
            end = time.perf_counter()
            self.probes.append(((start + end) / 2, end - start))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        import signal

        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """fn() and its seconds, less the probe handler runs that interrupted it."""
        seen = len(self.pauses)
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self.requests.append((start, end))
        # A handler run is wholly inside [start, end] or wholly outside it.
        paused = sum(b - a for a, b in self.pauses[seen:] if start <= a and b <= end)
        return result, end - start - paused

    def near(self, start: float, end: float) -> float:
        """Mean probe seconds within PROBE_WINDOW_S of [start, end], with
        always the last probe before it and the first after it."""
        times = [t for t, _ in self.probes]
        chosen = {i for i, t in enumerate(times) if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S}
        before = [i for i, t in enumerate(times) if t < start]
        after = [i for i, t in enumerate(times) if t > end]
        chosen.update(before[-1:] + after[:1])
        return sum(self.probes[i][1] for i in chosen) / len(chosen)

    def per_request(self) -> list[float]:
        return [self.near(start, end) for start, end in self.requests]


def check_items(report: list[dict], expected: list[list[str]]) -> int:
    """Failed verify items: not `pass`, missing, unexpected, or mislabelled."""
    failed = abs(len(report) - len(expected))
    for item, (identity, rng) in zip(report, expected):
        if item.get("status") != "pass" or item.get("identity") != identity or item.get("range") != rng:
            failed += 1
    return failed


def verify_requests(workload: str, size: str) -> list:
    """The suite as a list of calls, each returning part of the report.

    ``word-identities`` makes one call per identity family.  Made in this
    order in one process, they do the same work as ``identity_suite("all")``,
    and each can be timed on its own.  ``hopf-axioms`` is one call: its last
    item does not depend on the color sequence, so a call per sequence would
    repeat it.
    """
    from wordbell import bell, verify

    if workload == "word-identities":
        max_n, max_k = SIZES[size][workload]
        return [lambda w=which: bell.identity_suite(w, max_n=max_n, max_k=max_k) for which in FAMILIES]
    return [lambda: verify.hopf_suite(max_n=SIZES[size][workload])]


def run_verify(workload: str, size: str, expected: dict, sample: bool) -> dict:
    speed = Speed(sample)
    report, latencies = [], []
    speed.probe()
    with speed:
        for request in verify_requests(workload, size):
            part, seconds = speed.timed(request)
            latencies.append(seconds)
            speed.probe()
            report.extend(part)
    want = expected["items"][size][workload]
    failed = check_items(report, want)
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "probe_s": speed.per_request(),
        "attempted": max(len(want), len(report)),
        "failed": failed,
        "problems": [f"{failed} verify items failed or differ from the expected list"] if failed else [],
    }


def serve(stream: list[list[str]], speed: Speed | None = None):
    """Feed each argv to cli.main in turn; yield (argv, exit code, stdout, seconds)."""
    import contextlib
    import io

    from wordbell import cli

    def call(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code

    speed = speed or Speed()
    for argv in stream:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, seconds = speed.timed(lambda: call(argv))
        yield argv, code, out.getvalue(), seconds


def request_key(argv: list[str]) -> str:
    import json

    return json.dumps(argv)


def check_session(replies, digests: dict | None) -> tuple[int, list[str]]:
    """Failed replies and why: a wrong exit code, an oracle or a digest mismatch.

    ``digests`` maps each request of the default seed to the sha256 of its
    stdout; without it the oracles alone judge.
    """
    import hashlib

    import session

    failed, problems = 0, []
    for argv, code, out, _ in replies:
        key = request_key(argv)
        problem = session.check_reply(argv, code, out)
        if problem is None and digests is not None:
            if key not in digests:
                problem = "no recorded digest for a default-seed request"
            elif hashlib.sha256(out.encode()).hexdigest() != digests[key]:
                problem = "stdout differs from the recorded digest"
        if problem:
            failed += 1
            problems.append(f"{key}: {problem}")
    return failed, problems


def run_session(seed: int, size: str, expected: dict, sample: bool) -> dict:
    import session

    stream = session.make_stream(seed, SIZES[size]["cli-session"])
    digests = expected["digests"] if seed == DIGEST_SEED and size == "full" else None
    speed = Speed(sample)
    latencies = []

    def timed():
        for i, reply in enumerate(serve(stream, speed), 1):
            latencies.append(reply[3])
            yield reply
            if i % PROBE_GROUP == 0 or i == len(stream):
                speed.probe()

    # Each reply is checked before the next request is sent; wall_s counts
    # only the time spent inside cli.main.
    speed.probe()
    with speed:
        failed, problems = check_session(timed(), digests)
    return {
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "probe_s": speed.per_request(),
        "attempted": len(stream),
        "failed": failed,
        "problems": problems,
    }


def main(argv: list[str]) -> int:
    workload, seed, traced, size = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    setup_s = setup()
    import json
    import os
    import resource
    import statistics

    cold_guard()
    speed = Speed()
    for _ in range(2 + SETUP_SPEED_PROBES):  # the first probes also pay first-call costs
        speed.probe()
    result = {"setup_s": setup_s, "setup_probe_s": statistics.median(t for _, t in speed.probes[2:])}
    if workload != "setup":
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as fh:
            expected = json.load(fh)
        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        if workload == "cli-session":
            result.update(run_session(seed, size, expected, sample=not traced))
        else:
            result.update(run_verify(workload, size, expected, sample=not traced))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = layer_figures(tracer)
    print(json.dumps(result))
    return 0


def layer_figures(tracer) -> dict:
    """The tracer's figures plus the hit ratios of the caches the layers own."""
    from spans import cache_hit_ratio

    from wordbell import bell

    figures = tracer.figures()
    for name in ("combinatorics.set_partitions", "combinatorics.int_partitions"):
        figures[f"{name}.cache_hit_ratio"] = cache_hit_ratio(tracer.originals[name])
    figures["bell.mixed_bell_series.cache_hit_ratio"] = cache_hit_ratio(bell._mixed_bell_series_cached)
    return figures


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
