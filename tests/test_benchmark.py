"""The benchmark's entry points, judged by the benchmark's own checks.

perfbench/workloads.py times `cli.main`, `verify_all(..., jobs=2)` and
`multiplicity`. This runs the first operation of each workload once, in
process, so a change that breaks one of them (a renamed function, or a
dropped option such as `verify_all`'s `jobs`) fails here and not only in
the benchmark. The sweep's 50 boards together take a few hundredths of a
second, so every one of them runs. perfbench/make_reference.py, which
writes the table the queries are checked against, is run into a temporary
file and must reproduce the committed one byte for byte.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
make_reference = load("make_reference")


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


def test_reference_table_is_reproduced(monkeypatch, tmp_path):
    out = tmp_path / "reference_3x10.txt"
    monkeypatch.setattr(make_reference, "REFERENCE", str(out))
    assert make_reference.main([]) == 0
    assert out.read_bytes() == (PERFBENCH / "reference_3x10.txt").read_bytes()
