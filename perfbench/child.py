"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED REP JOBS TRACE
    python3 perfbench/child.py --setup-only

The runner starts it with PYTHONPATH pointing at the checkout's `src`, so the
process-wide memos start cold, as they do for a user's CLI call. It prints
one JSON object: the CLOCK_MONOTONIC reading once `foulkes` and
`foulkes.cli` are imported (the runner subtracts its own reading from before
the start to get set-up time), then wall and CPU time of the operations,
peak RSS, each operation's answer and latency, and, when traced, the spans.
"""

import time

import foulkes
import foulkes.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """The larger of this process's peak RSS and its largest child's."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    result = {"ready": READY, "package": os.path.abspath(foulkes.__file__)}
    if argv == ["--setup-only"]:
        print(json.dumps(result))
        return 0
    name, seed, rep, jobs, traced = argv
    import tracing
    import workloads

    ops = workloads.calls(name, int(seed), int(rep), int(jobs))
    tracer = None
    if traced == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.root()
    answers = []
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # an operation that raises counts as failed
            answers.append({"ms": (time.perf_counter() - start) * 1e3,
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        answers.append({"ms": (time.perf_counter() - start) * 1e3, "out": out})
    result["wall_s"] = time.perf_counter() - wall0
    if tracer is not None:
        tracer.close_root()
    result["cpu_s"] = cpu_seconds() - cpu0
    result["peak_rss_kb"] = peak_rss_kb()
    result["answers"] = answers
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["counts"].update(tracing.cache_counts())
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
