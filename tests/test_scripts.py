import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_census = load("run_census")
verify_shapes = load("verify_shapes")


@pytest.mark.parametrize("main, argv", [
    (run_census.main, ["--pairs", "3"]),
    (run_census.main, ["--pairs", "3,x"]),
    (run_census.main, ["--pairs", "0,3"]),
    (run_census.main, ["--jobs", "0"]),
    (run_census.main, ["--time-limit", "nan"]),
    (verify_shapes.main, ["--jobs", "0"]),
    (verify_shapes.main, ["--jobs", "x"]),
])
def test_bad_arguments_exit_2(main, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "error: argument" in err


def test_census_boards(capsys):
    assert run_census.main(["--pairs", "2,3", "3,3", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["total"] for line in lines] == [7, 12]


def test_census_budget_exits_3(capsys):
    code = run_census.main(["--pairs", "3,7", "--jobs", "1", "--time-limit", "0.000001"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "a=3 b=7" in err and "time limit" in err


def test_verify_sweep(capsys):
    assert verify_shapes.main(["--max-degree", "5", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.endswith("10 boards verified clean\n")


def test_census_claim_miss_exits_1(capsys, false_hook_claim):
    assert run_census.main(["--pairs", "2,3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("claim violation: a=2 b=3: 2x3 census: rule hook predicts 0")


def test_verify_sweep_reports_each_miss(capsys, false_hook_claim):
    assert verify_shapes.main(["--max-degree", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "MISS a=2 b=3 shape=6 rule=hook expected=0 actual=1" in lines
    # (6,) is on each of the four boards of degree 6
    assert lines[-1] == "4 discrepancies found"
