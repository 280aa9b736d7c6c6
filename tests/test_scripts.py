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
