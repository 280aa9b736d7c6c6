"""The benchmark's four workloads: their inputs, the calls they time, and the
checks on every answer.

Each workload is a list of operations. An operation is one board (one CLI
call, or one `verify_all` call) or one multiplicity query. `calls()` runs in
the timed child process and imports the package; everything else here runs
in the runner and does not, so the answers are checked with arithmetic of
the benchmark's own (hook lengths, set-partition counts, partition counts)
and with the committed reference table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import defaultdict
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference_3x10.txt")

# Worker processes for the pooled workloads, never more than the cores.
JOBS = min(2, os.cpu_count() or 1)

TABLE = "table-3x8-serial"
CENSUS = "census-3x8-pool"
SWEEP = "verify-sweep-16"
QUERIES = "queries-3x10"
NAMES = (TABLE, CENSUS, SWEEP, QUERIES)

# Every board with a*b <= 16, in the order scripts/verify_shapes.py walks them.
SWEEP_BOARDS = tuple((a, b) for a in range(1, 17) for b in range(1, 16 // a + 1))
QUERY_BOARD = (3, 10)
QUERY_COUNT = 300

# sha256 of `foulkes decompose 3 8 --jobs 1 --max-ab 24` stdout.
TABLE_STDOUT_SHA256 = (
    "df900ccd5efd857fbf6344709a44382812c483fb13c51a99b3bcac6a2fb1994e")
CENSUS_3X8 = {"a": 3, "b": 8, "total": 919, "zero": 548, "predicted": 172}


def table_argv(jobs: int = 1) -> list[str]:
    return ["decompose", "3", "8", "--jobs", str(jobs), "--max-ab", "24"]


def census_argv(jobs: int = JOBS) -> list[str]:
    return ["census", "3", "8", "--jobs", str(jobs)]


def default_jobs(name: str) -> int:
    return 1 if name == TABLE else JOBS


def has_expansion(name: str) -> bool:
    return name != QUERIES


def seed_note(name: str) -> str:
    if name == QUERIES:
        return (f"{QUERY_COUNT} shapes of weight 30 drawn without replacement "
                "by the seed, stratified by row count and dominance of (3^10)")
    return "fixed board; the seed is accepted and unused"


# --- inputs -----------------------------------------------------------------

def partitions_of(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, descending lexicographic."""
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part or n), 0, -1):
        out.extend((first,) + rest for rest in partitions_of(n - first, first))
    return out


def dominates_blocks(lam: tuple[int, ...]) -> bool:
    """Whether lam dominates (a^b) for the query board; if not, the
    multiplicity is zero for a structural reason."""
    a, b = QUERY_BOARD
    total = 0
    for k in range(b):
        total += lam[k] if k < len(lam) else 0
        if total < a * (k + 1):
            return False
    return len(lam) <= b


def query_shapes(seed: int, rep: int) -> list[tuple[int, ...]]:
    """The shapes one repetition of queries-3x10 asks for.

    Drawn without replacement from the partitions of 30, with each stratum
    (row count, and whether the shape dominates (3^10)) given its
    proportional share of the sample, so every seed sends the same number
    of structurally zero shapes. Each repetition of a run draws afresh, so
    a run covers more shapes than one repetition does.
    """
    pool = partitions_of(QUERY_BOARD[0] * QUERY_BOARD[1])
    strata = defaultdict(list)
    for lam in pool:
        strata[dominates_blocks(lam), len(lam)].append(lam)
    quota = {key: QUERY_COUNT * len(v) / len(pool) for key, v in strata.items()}
    take = {key: int(q) for key, q in quota.items()}
    short = QUERY_COUNT - sum(take.values())
    for key in sorted(quota, key=lambda k: (take[k] - quota[k], k))[:short]:
        take[key] += 1
    rng = random.Random(f"{seed}:{rep}")
    shapes = []
    for key in sorted(strata):
        shapes.extend(rng.sample(strata[key], take[key]))
    rng.shuffle(shapes)
    return shapes


def operation_count(name: str) -> int:
    return {TABLE: 1, CENSUS: 1, SWEEP: len(SWEEP_BOARDS), QUERIES: QUERY_COUNT}[name]


# --- the timed calls (child process only) -----------------------------------

def _cli(argv: list[str]):
    from foulkes import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def calls(name: str, seed: int, rep: int, jobs: int):
    """The workload's operations as zero-argument callables, in order.

    Each looks the public function up on its module at call time, so a
    traced run sees the wrapped version.
    """
    if name == TABLE:
        return [lambda: _cli(table_argv(jobs))]
    if name == CENSUS:
        return [lambda: _cli(census_argv(jobs))]
    if name == SWEEP:
        from foulkes import vanishing

        def board(a, b):
            return lambda: len(vanishing.verify_all(a, b, jobs=jobs))
        return [board(a, b) for a, b in SWEEP_BOARDS]
    if name == QUERIES:
        from foulkes import decomposition

        shape = decomposition.FoulkesShape(*QUERY_BOARD)

        def query(lam):
            return lambda: decomposition.multiplicity(shape, lam)
        return [query(lam) for lam in query_shapes(seed, rep)]
    raise ValueError(f"unknown workload {name!r}")


# --- checks (runner only) ---------------------------------------------------

def dimension(lam) -> int:
    """Degree of the irreducible character of lam, by the hook length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(sum(lam)) // hooks


def omega_size(a: int, b: int) -> int:
    """Number of set partitions of a*b points into b blocks of size a."""
    return factorial(a * b) // (factorial(a) ** b * factorial(b))


def parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def load_reference() -> dict[tuple[int, ...], int]:
    """The committed 3x10 table, after checking it against |Omega| and the
    census figures 3590 shapes with at most 10 rows, 1909 of them zero."""
    a, b = QUERY_BOARD
    table = {}
    with open(REFERENCE) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            shape, mult = line.split()
            table[parse_shape(shape)] = int(mult)
    if sum(m * dimension(lam) for lam, m in table.items()) != omega_size(a, b):
        raise ValueError("reference table: sum of mult * dim is not |Omega|")
    boxed = [lam for lam in partitions_of(a * b) if len(lam) <= b]
    zero = sum(1 for lam in boxed if table.get(lam, 0) == 0)
    if (len(boxed), zero) != (3590, 1909) or any(len(lam) > b for lam in table):
        raise ValueError("reference table disagrees with the 3590/1909 census")
    return table


def check_table(out) -> bool:
    if out["rc"] != 0:
        return False
    text = out["stdout"]
    if hashlib.sha256(text.encode()).hexdigest() != TABLE_STDOUT_SHA256:
        return False
    entries = json.loads(text)["entries"]
    dims = sum(e["mult"] * dimension(parse_shape(e["lambda"])) for e in entries)
    return len(entries) == len(partitions_of(24)) and dims == omega_size(3, 8)


def check_census(out) -> bool:
    if out["rc"] != 0:
        return False
    got = json.loads(out["stdout"])
    return all(got.get(k) == v for k, v in CENSUS_3X8.items())


class Checker:
    """Judges the answer of each operation of one workload."""

    def __init__(self, name: str):
        self.name = name
        self.reference = load_reference() if name == QUERIES else None

    def check(self, seed: int, rep: int, answers: list) -> list[bool]:
        """One verdict per operation; a missing answer is a failure."""
        expect = operation_count(self.name)
        answers = list(answers)[:expect] + [None] * (expect - len(answers))
        if self.name == QUERIES:
            shapes = query_shapes(seed, rep)
            return [ans is not None and "out" in ans
                    and ans["out"] == self.reference.get(lam, 0)
                    for lam, ans in zip(shapes, answers)]
        if self.name == SWEEP:
            return [ans is not None and ans.get("out") == 0 for ans in answers]
        judge = check_table if self.name == TABLE else check_census
        return [ans is not None and "out" in ans and judge(ans["out"])
                for ans in answers]
