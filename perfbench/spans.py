"""Spans and counts around the public functions of the wordbell layers.

The tracer measures each layer from outside: it replaces every module
binding of a public function (``bell`` does ``from .realization import
shuffle``, so one function can have several bindings) with a wrapper that
records a span -- name, start, end, parent span -- and exact counts.  A
layer's self time is the time its spans cover minus the time their child
spans cover.  Generator functions get one span per resumption, so the time
spent producing each item is charged to the generator, not its consumer.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("combinatorics", "lincomb", "hopf", "realization", "bell",
          "munthekaas", "serialize", "cli", "verify")
# The sparse-dict update of every LinComb operation lives in these methods.
LINCOMB_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__eq__")
# Span of the tracer's own counting work, kept out of the layers' self time.
TRACE_SPAN = "trace.count"


def _terms_out(counts, args, result):
    counts["terms_out"] += len(result)


def _shuffle_counts(counts, args, result):
    counts["word_pairs"] += len(args[0]) * len(args[1])
    counts["terms_out"] += len(result)


def _keys_out(counts, args, result):
    counts["keys_out"] += len(result)


def _bytes_out(counts, args, result):
    counts["bytes_out"] += len(json.dumps(result, sort_keys=True, separators=(",", ":")))


# Counters per span name: the counts kept, the function that updates them
# after each call, and whether that update is costly enough to get a span of
# its own so that its time is not charged to the caller's layer.
COUNTERS = {
    "realization.shuffle": (("word_pairs", "terms_out"), _shuffle_counts, False),
    "combinatorics.colored_partitions": (("keys_out",), _keys_out, False),
    "serialize.lincomb_to_jsonable": (("bytes_out",), _bytes_out, True),
    **{f"hopf.{name}": (("terms_out",), _terms_out, False) for name in (
        "phi_product", "phi_coproduct", "psi_product", "psi_coproduct",
        "tensor_multiply", "antipode")},
}
# Generators count the keys they yield.
GENERATOR_COUNT = "keys_out"


class Tracer:
    """Span recorder; ``install`` wraps the layers, spans stay in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, Counter] = {}
        self.originals: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _count(self, name, args, result) -> None:
        entry = COUNTERS.get(name)
        if entry is None:
            return
        _, fn, costly = entry
        counts = self.counts[name]
        if not costly:
            fn(counts, args, result)
            return
        span = self._open(self._name_id(TRACE_SPAN))
        try:
            fn(counts, args, result)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self
        if name in COUNTERS:
            self.counts[name] = Counter(dict.fromkeys(COUNTERS[name][0], 0))

        if inspect.isgeneratorfunction(fn):
            counts = self.counts[name] = Counter({GENERATOR_COUNT: 0})

            def resume(it):
                while True:
                    span = tracer._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    counts[GENERATOR_COUNT] += 1
                    yield item

            def gen_wrapper(*args, **kwargs):
                tracer.calls[name_id] += 1
                return resume(fn(*args, **kwargs))

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer.calls[name_id] += 1
            tracer._count(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layers and the LinComb operators."""
        modules = [importlib.import_module(f"wordbell.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if attr.startswith("_") or not is_function:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrapped[id(obj)] = self._wrap(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wordbell" and not mod_name.startswith("wordbell."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        lincomb_cls = importlib.import_module("wordbell.lincomb").LinComb
        for method in LINCOMB_METHODS:
            name = f"lincomb.LinComb.{method}"
            original = vars(lincomb_cls)[method]
            self.originals[name] = original
            setattr(lincomb_cls, method, self._wrap(name, original))

    # -- results -------------------------------------------------------------

    def figures(self) -> dict[str, float]:
        """Calls, self time and counts per span, and self time per layer."""
        own = self.self_times()
        out: dict[str, float] = {}
        for name, calls in zip(self.names, self.calls):
            if name == TRACE_SPAN:
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own[name]
            for stat, value in self.counts.get(name, {}).items():
                out[f"{name}.{stat}"] = value
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, t in own.items() if name.startswith(layer + "."))
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: span time minus the time its child spans cover."""
        own = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            d = ends[i] - starts[i]
            own[names[i]] += d
            if parents[i] >= 0:
                own[names[parents[i]]] -= d
        return dict(zip(self.names, own))


def cache_hit_ratio(cached) -> float:
    """Hits over lookups of an ``lru_cache``, 0 before the first lookup."""
    info = cached.cache_info()
    looked_up = info.hits + info.misses
    return info.hits / looked_up if looked_up else 0.0
