"""Predicted multiplicities: vanishing criteria and closed formulas.

Each rule inspects a shape combinatorially and either commits to a
multiplicity (zero, one, or an explicit count) or declines with NO_CLAIM.
Every rule of a Foulkes board is defined once, in _rules, which reads a
shape's hook coordinates off a few of its parts in integer arithmetic and
answers with (rule, verdict, expected) tuples, expected being the
multiplicity a claim commits to and None on NO_CLAIM. A Prediction is the
same tuple with its fields named: predictions_for gives one per rule for one
shape, and predict_gen_hooks is the one rule for boards with several block
sizes. census() and verify_all() hold the plain tuples against the exact
decomposition in one pass over the table, and build a Discrepancy only where
a claim misses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from foulkes.decomposition import FoulkesShape, GeneralizedShape, decompose
from foulkes.partitions import (
    Partition,
    count_box_partitions,
    format_partition,
    validate_partition,
)
from foulkes.symfunc import ComputeBudgetExceeded


class Verdict(Enum):
    ZERO = "zero"
    ONE = "one"
    VALUE = "value"
    NO_CLAIM = "no-claim"


class Rule(str, Enum):
    MANY_PARTS = "many-parts"
    HOOK = "hook"
    INSIDE_BOUND = "inside-bound"
    SMALL_INSIDE = "small-inside"
    TWO_ROW = "two-row"
    COLUMN_INSIDE = "column-inside"
    GEN_HOOK = "gen-hook"


class Prediction(NamedTuple):
    """What one rule asserts about one multiplicity: the multiplicity it
    commits to, or None on NO_CLAIM."""

    rule: Rule
    verdict: Verdict
    expected: int | None


@dataclass(frozen=True)
class Discrepancy:
    partition: Partition
    rule: Rule
    expected: int
    actual: int


@dataclass(frozen=True)
class CensusReport:
    """Zero count over all shapes with at most b rows, against predicted zeros."""

    a: int
    b: int
    total: int
    zero: int
    predicted: int
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "total": self.total,
            "zero": self.zero,
            "predicted": self.predicted,
            "elapsed_ms": int(round(self.elapsed_seconds * 1000)),
        }


def _either(rule: Rule, verdict: Verdict, expected: int) -> tuple[tuple, tuple]:
    """One rule's two (rule, verdict, expected) answers, indexed by whether it fires."""
    return (rule, Verdict.NO_CLAIM, None), (rule, verdict, expected)


_MANY_PARTS = _either(Rule.MANY_PARTS, Verdict.ZERO, 0)
_HOOK = _either(Rule.HOOK, Verdict.ZERO, 0)
_INSIDE_BOUND = _either(Rule.INSIDE_BOUND, Verdict.ZERO, 0)
_SMALL_INSIDE = _either(Rule.SMALL_INSIDE, Verdict.ZERO, 0)
_COLUMN_INSIDE = _either(Rule.COLUMN_INSIDE, Verdict.ONE, 1)
_GEN_HOOK = _either(Rule.GEN_HOOK, Verdict.ZERO, 0)


def _rules(lam: Partition, n: int, b: int,
           a: int | None = None) -> list[tuple[Rule, Verdict, int | None]]:
    """(rule, verdict, expected) for every rule that reads lam, in rule order,
    with expected the multiplicity a claim commits to, None on NO_CLAIM.

    lam must be a nonempty canonical partition of n; nothing here checks it.
    In hook coordinates lam has leg k = len(lam) - 1 and inside partition
    alpha = (lam_2 - 1, lam_3 - 1, ...) without its zeros, so |alpha| is
    n - lam_1 - k, alpha_1 is lam_2 - 1 and the tail weight t = |alpha| - alpha_1
    is the rest. As the parts descend, lam is a hook when lam_2 = 1, and alpha
    is the column (1^k) when lam_2 = lam_last = 2. The rules, each a zero
    unless said otherwise:

    - many-parts: lam has more rows than there are blocks (k >= b);
    - hook: lam is a hook with at least one box below its first row;
    - inside-bound: the leg outruns the tail, k > t, and
      alpha_1 < (k-t)(k-t+1)/2, compared as 2*alpha_1 < (k-t)(k-t+1) to stay
      in integers; hooks are its empty-inside case;
    - small-inside: 1 <= |alpha| <= k and alpha is not the column (1^k).

    On a board of b blocks of size a (a given), two more where lam has their form:

    - two-row: lam = (ab-r, r), or (ab) for r = 0, has multiplicity
      B(r) - B(r-1), with B(r) the number of partitions of r that fit in the
      a-by-b box, itself the pairing with the two-row Young subgroup's
      permutation character;
    - column-inside: lam = (ab-2k, 2^k) with 1 <= k < b has multiplicity one.
      It is claimed only for a >= 2: with singleton blocks the character is
      trivial and every such shape has multiplicity zero.
    """
    k = len(lam) - 1
    second = lam[1] if k else 1
    column = k > 0 and second == 2 and lam[-1] == 2
    inside = n - lam[0] - k
    d = k - inside + second - 1  # leg minus tail weight
    rules = [
        _MANY_PARTS[k >= b],
        _HOOK[k > 0 and second == 1],
        _INSIDE_BOUND[d > 0 and 2 * (second - 1) < d * (d + 1)],
        _SMALL_INSIDE[1 <= inside <= k and not column],
    ]
    if a is not None:
        if k <= 1:
            r = lam[1] if k else 0
            rules.append((Rule.TWO_ROW, Verdict.VALUE,
                          count_box_partitions(r, a, b) - count_box_partitions(r - 1, a, b)))
        if column:
            rules.append(_COLUMN_INSIDE[k < b and a >= 2])
    return rules


def predict_gen_hooks(shape: GeneralizedShape, lam) -> Prediction:
    """Zero on hooks whose leg reaches the number of distinct block sizes."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    if not lam:
        raise ValueError("the empty partition has no hook shape")
    return Prediction._make(_GEN_HOOK[len(lam) > shape.distinct_sizes and lam[1] == 1])


def predictions_for(shape: FoulkesShape, lam) -> tuple[Prediction, ...]:
    """Every applicable prediction for one shape of the right weight, one per
    entry of _rules; the empty shape has none. perfbench/make_reference.py
    reads the committed claims through this."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    if not lam:
        return ()
    return tuple(map(Prediction._make, _rules(lam, shape.degree, shape.b, shape.a)))


def _hold(shape: FoulkesShape, rows) -> tuple[list[Discrepancy], int]:
    """Hold each row's committed claims against its exact multiplicity: the
    misses, in row and rule order, and how many rows some rule calls zero.
    The rows are a table's, so each shape is a canonical partition of the
    board's degree and goes to _rules unchecked; the empty shape, the only
    one of degree 0, has no rules."""
    a, b, n = shape.a, shape.b, shape.degree
    misses, called = [], 0
    if not n:
        return misses, called
    for lam, actual in rows:
        calls_zero = False
        for rule, verdict, expected in _rules(lam, n, b, a):
            if expected is not None:
                if expected != actual:
                    misses.append(Discrepancy(lam, rule, expected, actual))
                if verdict is Verdict.ZERO:
                    calls_zero = True
        called += calls_zero
    return misses, called


def census(a: int, b: int, jobs: int = 1,
           deadline: float | None = None) -> CensusReport:
    """Count exact zeros among all shapes with at most b rows, and how many of
    them the vanishing rules call in advance.

    Every committed prediction (zeros, ones, and closed-form values) is also
    checked against the exact multiplicity; a single miss raises rather than
    returning a report that quietly disagrees with the claims. `deadline` is
    one wall-clock budget in seconds for the table and the rule pass; running
    past it raises ComputeBudgetExceeded naming the stage.
    """
    shape = FoulkesShape(a, b)
    start = time.perf_counter()
    stop = None if deadline is None else time.monotonic() + deadline
    table = decompose(shape, jobs=jobs, deadline=deadline)
    rows = [(lam, actual) for lam, actual in table.entries if len(lam) <= b]
    zero = sum(1 for _, actual in rows if actual == 0)
    misses, predicted = _hold(shape, rows)
    if stop is not None and time.monotonic() > stop:
        raise ComputeBudgetExceeded(f"{a}x{b} census passed its time limit in the rule pass")
    if misses:
        miss = misses[0]
        raise ArithmeticError(
            f"{a}x{b} census: rule {miss.rule.value} predicts {miss.expected} for "
            f"lambda={format_partition(miss.partition)}; exact multiplicity is {miss.actual}")
    return CensusReport(a=a, b=b, total=len(rows), zero=zero,
                        predicted=predicted, elapsed_seconds=time.perf_counter() - start)


def verify_all(a: int, b: int, jobs: int = 1,
               deadline: float | None = None) -> list[Discrepancy]:
    """Hold every committed prediction against the full exact decomposition.

    Runs without the structural fast path, so shapes the rules call zero are
    recomputed honestly. Returns the mismatches; an empty list means every
    claim checked out over all shapes of weight a*b. `deadline` bounds the
    table and the rule pass together, as in census.
    """
    shape = FoulkesShape(a, b)
    stop = None if deadline is None else time.monotonic() + deadline
    table = decompose(shape, use_fastpath=False, jobs=jobs, deadline=deadline)
    misses = _hold(shape, table.entries)[0]
    if stop is not None and time.monotonic() > stop:
        raise ComputeBudgetExceeded(f"{a}x{b} verify passed its time limit in the rule pass")
    return misses
