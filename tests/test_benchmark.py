"""The benchmark's entry points, judged by the benchmark's own checks.

perfbench/workloads.py times `cli.main`, `verify_all(..., jobs=2)` and
`multiplicity`. This runs the first operation of each workload once, in
process, so a change that breaks one of them (a renamed function, or a
dropped option such as `verify_all`'s `jobs`) fails here and not only in
the benchmark. The sweep's 50 boards together take a few hundredths of a
second, so every one of them runs.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_operation_passes_its_check(name):
    seed, rep = 1, 0
    first = workloads.calls(name, seed, rep, workloads.default_jobs(name))[0]
    verdicts = workloads.Checker(name).check(seed, rep, [{"out": first()}])
    assert verdicts[0]


def test_every_sweep_operation_passes_its_check():
    name, seed, rep = workloads.SWEEP, 1, 0
    ops = workloads.calls(name, seed, rep, workloads.default_jobs(name))
    assert len(ops) == workloads.operation_count(name) == 50
    verdicts = workloads.Checker(name).check(seed, rep, [{"out": op()} for op in ops])
    assert verdicts == [True] * 50
