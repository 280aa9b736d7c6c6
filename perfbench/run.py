#!/usr/bin/env python3
"""Benchmark for the foulkes package: four workloads, every answer checked.

    python3 perfbench/run.py --workload table-3x8-serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports the package from `src/`.
Each repetition is a fresh interpreter (`child.py`), so the package's
process-wide memos start cold, as they do for a user's CLI call. The runner
starts repetitions until the next one would end past `--seconds`, and
reports the median over repetitions of each per-repetition figure.

With `--trace 0` it reports the end-to-end metrics:

    setup_s      interpreter start plus `import foulkes, foulkes.cli`
                 (median of separate start-ups made at the start of the run)
    wall_s       time from the first call to the last answer
    cpu_s        user + sys time of the process and its pool workers
    peak_rss_mb  the larger of the process's peak RSS and its largest child's
    op_p50_ms    median latency of one operation: a board or a query
    op_p95_ms    95th percentile latency of one operation (nearest rank)
    ops_per_s    operations per second of wall time

With `--trace 1` it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (see `layer_metrics`), plus the
tracing overhead: traced `wall_s` minus untraced `wall_s`. The spans are
written to `perfbench/out/`. A line of details (machine, per-repetition
figures, notes) comes before the last line, which is the summary:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when any
answer is wrong or missing, 2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
# Every child is killed past this many seconds from the start of the run.
HARD_LIMIT_S = 160.0
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
              "op_p50_ms", "op_p95_ms", "ops_per_s")
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "op_p50_ms": "ms", "op_p95_ms": "ms", "ops_per_s": "1/s"}
NOTES = {
    "scope": "only the benchmark's own processes are measured; no machine-wide "
             "tracing, no cache dropping; FOULKES_CACHE_DIR is unset",
    "partitions": "strip cache counters are read in the process that ran the "
                  "workload; pool workers' caches are not visible from outside",
    "self_time": "partitions has no spans: its time is in the self time of its "
                 "callers (symfunc expansion, characters MN sum)",
}


class Runner:
    """Starts the children of one workload run and keeps them bounded."""

    def __init__(self, hard_stop: float):
        self.hard_stop = hard_stop
        self.env = dict(os.environ)
        self.env.pop("FOULKES_CACHE_DIR", None)
        self.env["PYTHONPATH"] = SRC

    def spawn(self, args: list[str]) -> tuple[dict | None, float, str]:
        """Run one child; returns its report, when it started, and its stderr."""
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-s", CHILD, *args], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.hard_stop - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._stop(proc)
            out, err = proc.communicate()
            err += "\nkilled at the run's time limit"
        finally:
            self._stop(proc)
        if proc.returncode != 0:
            return None, started, err
        try:
            report = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return None, started, err + "\nno report on stdout"
        if report.get("package") != os.path.join(SRC, "foulkes", "__init__.py"):
            return None, started, f"imported foulkes from {report.get('package')}"
        return report, started, err

    @staticmethod
    def _stop(proc: subprocess.Popen) -> None:
        """Stop whatever is left of a child's process group and wait for it."""
        deadline = time.monotonic() + 10
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def rep_figures(report: dict) -> dict:
    lat = [a["ms"] for a in report["answers"]]
    return {
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "op_p50_ms": percentile(lat, 0.50),
        "op_p95_ms": percentile(lat, 0.95),
        "ops_per_s": len(lat) / report["wall_s"],
    }


def layer_metrics(report: dict) -> dict:
    """Per-layer figures of one traced repetition."""
    spans = report["spans"]
    self_s = tracing.self_times(spans)
    leaves = tracing.leaf_calls(spans)
    counts = report["counts"]
    calls = counts.get("decomposition.multiplicity_calls", 0)
    wall = report["wall_s"]
    bench = self_s.get(tracing.ROOT, 0.0)
    out = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "decomposition.decompose_self_s": self_s.get("decomposition.decompose", 0.0),
        "decomposition.multiplicity_s": self_s.get("decomposition.multiplicity", 0.0),
        "decomposition.multiplicity_calls": calls,
        "decomposition.fastpath_share":
            counts.get("decomposition.fastpath_answers", 0) / calls if calls else 0.0,
        "vanishing.self_s": self_s.get("vanishing.census", 0.0)
                            + self_s.get("vanishing.verify_all", 0.0),
        "vanishing.rules_s": self_s.get("vanishing.predictions_for", 0.0),
        "vanishing.rule_checks": counts.get("vanishing.rule_checks", 0),
        "symfunc.plethysm_s": self_s.get("symfunc.plethysm_h", 0.0),
        "symfunc.support_terms": counts.get("symfunc.support_terms", 0),
        "symfunc.expansion_s": self_s.get("symfunc.schur_expansion", 0.0),
        "characters.mn_s": self_s.get("characters.mn_char", 0.0),
        "characters.mn_calls": leaves.get("characters.mn_char", 0),
        "bench.self_s": bench,
        "trace.wall_s": wall,
        "trace.accounted_share": (wall - bench) / wall,
    }
    for key in ("symfunc.expansion_calls", "symfunc.expansion_shapes",
                "symfunc.pool_expansions", "symfunc.pool_children_cpu_s",
                "characters.memo_entries", "partitions.strip_add_calls",
                "partitions.strip_add_hit_ratio", "partitions.strip_remove_calls",
                "partitions.strip_remove_hit_ratio"):
        out[key] = counts.get(key, 0)
    return out


UNIT_BY_SUFFIX = (("_s", "s"), ("_share", "ratio"), ("_ratio", "ratio"),
                  ("_speedup", "x"))


def layer_unit(name: str) -> str:
    for suffix, unit in UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns (details, summary)."""
    run_start = time.monotonic()
    runner = Runner(run_start + HARD_LIMIT_S)
    checker = workloads.Checker(name)
    jobs = workloads.default_jobs(name)
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs": workloads.seed_note(name), "jobs": jobs,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "loadavg_at_start": os.getloadavg()},
        "notes": NOTES, "errors": [],
    }

    # Set-up: one start-up to write bytecode caches, then the measured ones.
    setups = []
    for i in range(SETUP_PROBES + 1):
        report, started, err = runner.spawn(["--setup-only"])
        if report is None:
            details["errors"].append(err.strip()[-2000:])
            break
        if i:
            setups.append(report["ready"] - started)
    details["setup_s"] = setups

    attempted = failed = 0
    reps, traced_reps = [], []
    durations = []

    def one(rep: int, trace_on: bool, rep_jobs: int = jobs):
        nonlocal attempted, failed
        report, started, err = runner.spawn(
            [name, str(seed), str(rep), str(rep_jobs), "1" if trace_on else "0"])
        durations.append(time.monotonic() - started)
        answers = report["answers"] if report else []
        verdicts = checker.check(seed, rep, answers)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if report is None:
            details["errors"].append(err.strip()[-2000:])
            return None
        for ans, ok in zip(answers, verdicts):
            if not ok:
                details["errors"].append(
                    f"rep {rep}: wrong answer {json.dumps(ans)[:300]}")
        return report

    measure_start = time.monotonic()
    rep = 0
    while setups:
        if traced:
            plain = one(rep, False)
            rich = one(rep, True)
            if plain and rich:
                reps.append(plain)
                traced_reps.append(rich)
        else:
            plain = one(rep, False)
            if plain:
                reps.append(plain)
        rep += 1
        elapsed = time.monotonic() - measure_start
        if not durations or elapsed + (1 + traced) * statistics.median(durations) > seconds:
            break
        if time.monotonic() > run_start + HARD_LIMIT_S / 2:
            break

    metrics = {}
    figures = [rep_figures(r) for r in reps]
    details["reps"] = figures
    if figures and not traced:
        metrics["setup_s"] = statistics.median(setups)
        for key in END_TO_END[1:]:
            metrics[key] = statistics.median(f[key] for f in figures)
    if traced_reps:
        layers = [layer_metrics(r) for r in traced_reps]
        details["traced_reps"] = layers
        for key in layers[0]:
            metrics[key] = statistics.median(layer[key] for layer in layers)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            f["wall_s"] for f in figures)
        metrics["symfunc.pool_speedup"] = 0.0
        if workloads.has_expansion(name) and workloads.JOBS > 1:
            # The same workload at the other job count, for the pool's speed-up.
            other = workloads.JOBS if jobs == 1 else 1
            counterpart = one(rep, True, other)
            if counterpart:
                there = layer_metrics(counterpart)["symfunc.expansion_s"]
                here = metrics["symfunc.expansion_s"]
                serial, pooled = (here, there) if jobs == 1 else (there, here)
                metrics["symfunc.pool_speedup"] = serial / pooled if pooled else 0.0
        details["missing_functions"] = traced_reps[0].get("missing", [])
        write_spans(name, seed, traced_reps)

    details["failed_ratio"] = {"value": failed / attempted if attempted else 1.0,
                               "unit": "ratio"}
    correct = bool(setups) and bool(reps) and failed == 0 and attempted > 0
    if traced:
        correct = correct and bool(traced_reps)
    units = {k: UNITS.get(k) or layer_unit(k) for k in metrics}
    summary = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details["run_s"] = time.monotonic() - run_start
    return details, summary


def write_spans(name: str, seed: int, traced_reps: list[dict]) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "leaves"],
                   "repetitions": [r["spans"] for r in traced_reps]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its children (see Runner.spawn).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "foulkes", "__init__.py")):
        print(f"error: no package at {SRC}; run from the root of a foulkes checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        details, summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(details), flush=True)
        print(json.dumps(summary), flush=True)
        summaries[name] = summary
    if len(names) > 1:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{k}": v for n, s in summaries.items()
                        for k, v in s["metrics"].items()},
        }))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
