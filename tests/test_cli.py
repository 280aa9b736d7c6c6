import hashlib
import json
import os
import pickle
import resource
import subprocess
import sys
import time

import pytest

import foulkes
from foulkes import cli, vanishing
from foulkes.characters import mn_char
from foulkes.cli import (
    EXIT_BUDGET,
    EXIT_DISCREPANCY,
    EXIT_INPUT,
    EXIT_INTERRUPT,
    EXIT_OK,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestHappyPaths:
    def test_multiplicity(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "3", "3", "5,2,2")
        assert code == EXIT_OK
        assert json.loads(out) == {"a": 3, "b": 3, "lambda": "5,2,2", "mult": 1}

    def test_multiplicity_no_fastpath(self, capsys):
        code, out, _ = run(capsys, "multiplicity", "2", "3", "3,1,1,1", "--no-fastpath")
        assert code == EXIT_OK
        assert json.loads(out)["mult"] == 0

    def test_decompose_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "2", "3", "--nonzero")
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == [
            {"lambda": "6", "mult": 1},
            {"lambda": "4,2", "mult": 1},
            {"lambda": "2,2,2", "mult": 1},
        ]

    def test_decompose_csv(self, capsys):
        code, out, _ = run(capsys, "decompose", "2", "2", "--csv")
        assert code == EXIT_OK
        assert out == (
            "lambda,mult,dimension\n"
            "4,1,1\n"
            '"3,1",0,3\n'
            '"2,2",1,2\n'
            '"2,1,1",0,3\n'
            '"1,1,1,1",0,1\n'
        )

    def test_census(self, capsys):
        code, out, _ = run(capsys, "census", "2", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["total"], payload["zero"], payload["predicted"]) == (7, 4, 3)
        assert isinstance(payload["elapsed_ms"], int)

    def test_verify_clean(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "4")
        assert code == EXIT_OK
        assert json.loads(out)["discrepancies"] == []

    def test_restrict(self, capsys):
        code, out, _ = run(capsys, "restrict", "2", "3", "2")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "a": 2, "b": 3, "r": 2, "total": 15,
            "orbits": [
                {"lambda": "2", "size": 3},
                {"lambda": "1,1", "size": 12},
            ],
        }

    def test_hook_coords_encode(self, capsys):
        code, out, _ = run(capsys, "hook-coords", "7,3,1,1")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "lambda": "7,3,1,1", "total": 12, "leg": 3,
            "inside": "2", "inside_weight": 2, "tail_weight": 0,
        }

    def test_hook_coords_build(self, capsys):
        code, out, _ = run(capsys, "hook-coords", "--total", "10", "--leg", "3",
                           "--inside", "3")
        assert code == EXIT_OK
        assert json.loads(out)["lambda"] == "4,4,1,1"

    def test_hook_coords_build_bare_hook(self, capsys):
        code, out, _ = run(capsys, "hook-coords", "--total", "6", "--leg", "2")
        assert code == EXIT_OK
        assert json.loads(out)["lambda"] == "4,1,1"

    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK


class TestByteStability:
    def test_decompose_json_bytes(self, capsys):
        first = run(capsys, "decompose", "3", "3")
        second = run(capsys, "decompose", "3", "3")
        assert first == second

    def test_decompose_csv_bytes(self, capsys):
        first = run(capsys, "decompose", "3", "3", "--csv")
        second = run(capsys, "decompose", "3", "3", "--csv")
        assert first == second

    def test_restrict_bytes(self, capsys):
        first = run(capsys, "restrict", "3", "4", "5")
        second = run(capsys, "restrict", "3", "4", "5")
        assert first == second

    def test_multiplicity_bytes(self, capsys):
        first = run(capsys, "multiplicity", "2", "5", "6,4")
        second = run(capsys, "multiplicity", "2", "5", "6,4")
        assert first == second


class TestFailurePaths:
    def test_bad_partition_text(self, capsys):
        code, _, err = run(capsys, "multiplicity", "2", "3", "6;1")
        assert code == EXIT_INPUT
        assert "error" in err

    def test_wrong_weight(self, capsys):
        assert run(capsys, "multiplicity", "2", "3", "5,2")[0] == EXIT_INPUT

    def test_huge_repeat_count_is_refused_unexpanded(self):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(foulkes.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "foulkes.cli", "multiplicity", "3", "6", "1^100000000000"],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        assert "is not a partition of 18" in done.stderr

    @pytest.mark.parametrize("argv", [
        ("hook-coords", "1^100000000000"),
        ("hook-coords", "--total", "100000000000", "--leg", "99999999999"),
        ("hook-coords", "--total", "10", "--leg", "3", "--inside", "1^100000000000"),
    ])
    def test_huge_hook_coords_are_refused_unbuilt(self, argv):
        # under a 1 GB address-space cap, as the expanded shape would not fit
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(foulkes.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "foulkes.cli", *argv], env=env, capture_output=True,
            text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    def test_hook_coords_weight_guard_can_be_raised(self, capsys):
        for argv in (("hook-coords", "21"), ("hook-coords", "--total", "21", "--leg", "1")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (EXIT_INPUT, "")
            assert err.startswith("error: ") and "20" in err
            code, out, _ = run(capsys, *argv, "--max-ab", "21")
            assert code == EXIT_OK and json.loads(out)["total"] == 21

    def test_census_claim_miss_exits_1(self, capsys, false_hook_claim):
        code, out, err = run(capsys, "census", "2", "3")
        assert (code, out) == (EXIT_DISCREPANCY, "")
        assert err == ("claim violation: 2x3 census: rule hook predicts 0 for lambda=6; "
                       "exact multiplicity is 1\n")

    def test_verify_claim_miss_exits_1(self, capsys, false_hook_claim):
        code, out, _ = run(capsys, "verify", "2", "3")
        assert code == EXIT_DISCREPANCY
        assert json.loads(out) == {"a": 2, "b": 3, "discrepancies": [
            {"lambda": "6", "rule": "hook", "expected": 0, "actual": 1}]}

    def test_degree_guard(self, capsys):
        code, _, err = run(capsys, "decompose", "5", "5")
        assert code == EXIT_INPUT
        assert "--max-ab" in err

    def test_degree_guard_can_be_raised(self, capsys):
        assert run(capsys, "multiplicity", "5", "5", "25",
                   "--max-ab", "25")[0] == EXIT_OK

    def test_census_size_gate(self, capsys):
        code, _, err = run(capsys, "census", "4", "8")
        assert code == EXIT_INPUT
        assert "--allow-large" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_INPUT

    def test_no_command(self, capsys):
        assert run(capsys)[0] == EXIT_INPUT

    def test_hook_coords_needs_exactly_one_mode(self, capsys):
        assert run(capsys, "hook-coords")[0] == EXIT_INPUT
        assert run(capsys, "hook-coords", "3,1", "--total", "4", "--leg", "1")[0] \
            == EXIT_INPUT
        assert run(capsys, "hook-coords", "--total", "4")[0] == EXIT_INPUT

    def test_hook_coords_invalid_shape(self, capsys):
        code, _, err = run(capsys, "hook-coords", "--total", "9", "--leg", "3",
                           "--inside", "3")
        assert code == EXIT_INPUT
        assert "first row" in err

    def test_time_budget(self, capsys):
        code, _, err = run(capsys, "decompose", "3", "7", "--max-ab", "21",
                           "--jobs", "1", "--time-limit", "0.000001")
        assert code == EXIT_BUDGET
        assert "time limit" in err

    def test_rule_pass_past_time_budget(self, capsys, monkeypatch):
        hold = vanishing._hold

        def slow(*args):
            time.sleep(0.2)
            return hold(*args)

        monkeypatch.setattr(vanishing, "_hold", slow)
        code, out, err = run(capsys, "census", "2", "3", "--time-limit", "0.1")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err == "error: 2x3 census passed its time limit in the rule pass\n"

    @pytest.mark.parametrize("limit, argv", [
        # the partition listing recurses once per part: 1200 deep
        (1000, ("restrict", "1", "1200", "1200", "--max-ab", "1200")),
        # the query's pull recurses once per block
        (100, ("multiplicity", "1", "120", "120", "--max-ab", "120")),
    ])
    def test_deep_recursion_is_bad_input(self, limit, argv):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(foulkes.__file__)))
        script = ("import sys; from foulkes.cli import main; "
                  "sys.setrecursionlimit(int(sys.argv[1])); sys.exit(main(sys.argv[2:]))")
        done = subprocess.run([sys.executable, "-c", script, str(limit), *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (EXIT_INPUT, "")
        assert done.stderr == (f"error: {argv[0]}: input too large, it ran past "
                               f"Python's recursion limit of {limit}\n")

    def test_time_limit_nan_rejected(self, capsys):
        for argv in (("decompose", "3", "4", "--jobs", "1"),
                     ("census", "3", "6", "--jobs", "2")):
            code, out, err = run(capsys, *argv, "--time-limit", "nan")
            assert (code, out) == (EXIT_INPUT, "")
            assert "--time-limit" in err

    @pytest.mark.parametrize("argv", [
        ("multiplicity", "3", "3", "5,2,2", "--jobs", "0"),
        ("restrict", "2", "3", "2", "--jobs", "-3"),
        ("decompose", "3", "3", "--jobs", "0"),
        ("verify", "3", "3", "--jobs", "0"),
    ])
    def test_jobs_below_one_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_INPUT, "")
        assert "--jobs" in err

    def test_interrupt_maps_to_its_code(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "census", boom)
        assert run(capsys, "census", "2", "3")[0] == EXIT_INTERRUPT

    def test_claim_violation_maps_to_discrepancy(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ArithmeticError("fabricated for the exit-code path")
        monkeypatch.setattr(cli, "census", boom)
        code, _, err = run(capsys, "census", "2", "3")
        assert code == EXIT_DISCREPANCY
        assert "claim violation" in err


PINNED_STDOUT = [
    ("decompose 3 8 --jobs 1 --max-ab 24",
     "df900ccd5efd857fbf6344709a44382812c483fb13c51a99b3bcac6a2fb1994e"),
    ("decompose 3 3 --csv", "0a53bf75a1c5c137e4572792892a7cbaab0db8883addd4c6e54daca7edfa45d7"),
    ("verify 3 4", "0b4c449bb93611b070120ef1ff1c36b393c668bfca7949d56ef26b30d672c225"),
    ("multiplicity 3 3 5,2,2", "1e71be6f40016d0fe713712eba96a5d808caed4d93b10ed6781e7a7141ed948b"),
    ("multiplicity 2 5 6,4", "95d5caab6fc601f1a4ec3ef4d03a5d451ab22f2c95203d4cdb89a00e3aeacfce"),
    ("restrict 3 4 5", "c79fa1b8bf266b3bd51b12c6318552e80ddfea64937318bd4d235c0237ac6229"),
    ("hook-coords 7,3,1,1", "b89f4f4f65afe3634a6ed601f156d71e195bfe14617055626908dcea0870fab5"),
]


@pytest.mark.parametrize("command, digest", PINNED_STDOUT, ids=[c for c, _ in PINNED_STDOUT])
def test_pinned_stdout(capsys, command, digest):
    # stdout is the contract: these bytes must not change
    code, out, _ = run(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCharacterCacheDir:
    """Files in FOULKES_CACHE_DIR are never read: the variable is ignored."""

    def cold_cli(self, cache_dir, *argv):
        env = dict(os.environ, FOULKES_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=os.path.dirname(os.path.dirname(foulkes.__file__)))
        return subprocess.run([sys.executable, "-m", "foulkes.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_poisoned_cache_is_ignored(self, tmp_path):
        # the identity-class value of (5,2,2) is off by one: read, it would
        # make the multiplicity 1297/1296
        entries = {((5, 2, 2), (1,) * 9): mn_char((5, 2, 2), (1,) * 9) + 1}
        (tmp_path / "character-cache-v1.pkl").write_bytes(
            pickle.dumps({"format": 1, "entries": entries}))
        done = self.cold_cli(tmp_path, "multiplicity", "3", "3", "5,2,2")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert '"mult":1' in done.stdout

    def test_malformed_cache_is_ignored(self, tmp_path):
        (tmp_path / "character-cache-v1.pkl").write_bytes(
            pickle.dumps({"format": 1, "entries": [1, 2, 3]}))
        done = self.cold_cli(tmp_path, "multiplicity", "2", "2", "2,2")
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert '"mult":1' in done.stdout
