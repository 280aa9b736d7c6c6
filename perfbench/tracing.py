"""Spans around the package's public calls, for the traced run.

The package itself is not touched. `install()` replaces each traced function
with a wrapper on its defining module and on every other `foulkes` module
that bound the same function by name (`vanishing` imports `schur_expansion`
and `decompose` that way, `cli` imports `decompose`, `census`, `verify_all`
and `multiplicity`), so callers inside the package reach the wrapper too.

A span is [name, start, end, parent, leaves]. `leaves` aggregates the calls
of hot leaf functions (`mn_char`) made directly under the span as a count and
a total time, instead of one span per call. Spans stay in memory; the child
process hands them to the runner when the repetition ends. A layer's self
time is the span time its child spans and leaf calls do not cover.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import Counter

# (layer, function, kind): kind "span" records one span per call, "leaf" only
# a count and a total time under the caller's span.
TRACED = (
    ("cli", "main", "span"),
    ("decomposition", "decompose", "span"),
    ("decomposition", "multiplicity", "span"),
    ("vanishing", "census", "span"),
    ("vanishing", "verify_all", "span"),
    ("vanishing", "predictions_for", "span"),
    ("symfunc", "plethysm_h", "span"),
    ("symfunc", "schur_expansion", "span"),
    ("characters", "mn_char", "leaf"),
)
ROOT = "bench.workload"


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def span(self, name: str, fn, after=None, before=None):
        """Wrap fn so each call records a span; `after` sees the call's result."""
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(len(self.spans))
            record = [name, 0.0, 0.0, parent, {}]
            self.spans.append(record)
            token = before() if before else None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after:
                after(self.counts, token, record, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaves = self.spans[self.stack[-1]][4]
                got = leaves.get(name)
                if got is None:
                    leaves[name] = [1, time.perf_counter() - start]
                else:
                    got[0] += 1
                    got[1] += time.perf_counter() - start
        wrapper.__wrapped__ = fn
        return wrapper

    def root(self):
        """Open the span that covers the whole repetition."""
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, {}])

    def close_root(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()


def _plethysm(counts, token, record, args, kwargs, result):
    counts["symfunc.support_terms"] += len(getattr(result, "coeffs", ()))


def _expansion(fn):
    """Counts calls, returned shapes, pool use and the pool's CPU time."""
    signature = inspect.signature(fn)

    def after(counts, cpu_before, record, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        jobs = bound.arguments.get("jobs", 1) or 1
        support = len(getattr(bound.arguments.get("f"), "coeffs", ()))
        counts["symfunc.expansion_calls"] += 1
        counts["symfunc.expansion_shapes"] += len(result)
        if jobs > 1 and support >= 4 * jobs:
            counts["symfunc.pool_expansions"] += 1
        counts["symfunc.pool_children_cpu_s"] += _children_cpu() - cpu_before
    return after


def _rules(counts, token, record, args, kwargs, result):
    counts["vanishing.rule_checks"] += sum(
        1 for p in result if getattr(p.verdict, "value", None) != "no-claim")


def _multiplicity(counts, token, record, args, kwargs, result):
    counts["decomposition.multiplicity_calls"] += 1
    if "characters.mn_char" not in record[4]:
        counts["decomposition.fastpath_answers"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever a `foulkes` module binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "foulkes" or n.startswith("foulkes."))]
    for layer, attr, kind in TRACED:
        home = sys.modules.get(f"foulkes.{layer}")
        fn = getattr(home, attr, None)
        if fn is None:
            tracer.missing.append(f"{layer}.{attr}")
            continue
        name = f"{layer}.{attr}"
        if kind == "leaf":
            wrapped = tracer.leaf(name, fn)
        elif name == "symfunc.schur_expansion":
            wrapped = tracer.span(name, fn, _expansion(fn), _children_cpu)
        else:
            after = {"symfunc.plethysm_h": _plethysm,
                     "vanishing.predictions_for": _rules,
                     "decomposition.multiplicity": _multiplicity}.get(name)
            wrapped = tracer.span(name, fn, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)


def cache_counts() -> dict:
    """Process-wide memo sizes and border-strip cache counters.

    Read in the process that ran the workload: pool workers' caches are not
    visible from outside.
    """
    out = {}
    characters = sys.modules.get("foulkes.characters")
    size = getattr(characters, "cache_size", None)
    out["characters.memo_entries"] = size() if size else 0
    partitions = sys.modules.get("foulkes.partitions")
    for short, attr in (("strip_add", "border_strip_additions"),
                        ("strip_remove", "border_strip_removals")):
        info = getattr(getattr(partitions, attr, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        calls = hits + misses
        out[f"partitions.{short}_calls"] = calls
        out[f"partitions.{short}_hit_ratio"] = hits / calls if calls else 0.0
    return out


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name, and per leaf name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, leaves in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, parent, leaves) in enumerate(spans):
        leaf_time = 0.0
        for leaf, (count, seconds) in leaves.items():
            out[leaf] += seconds
            leaf_time += seconds
        out[name] += end - start - covered[i] - leaf_time
    return dict(out)


def leaf_calls(spans: list[list]) -> Counter:
    out: Counter = Counter()
    for span in spans:
        for leaf, (count, seconds) in span[4].items():
            out[leaf] += count
    return out
