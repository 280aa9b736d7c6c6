"""Predicted multiplicities: vanishing criteria and closed formulas.

Each predicate inspects a shape combinatorially and either commits to a
multiplicity (zero, one, or an explicit count) or declines with NO_CLAIM.
Every rule of a Foulkes board is defined once, in _rules, which reads a
shape's hook coordinates off a few of its parts in integer arithmetic and
answers with (rule, verdict, expected) tuples. The public predicates and
predictions_for wrap those tuples in Prediction objects. census() and
verify_all() hold the tuples against the exact decomposition in one pass
over the table, and build a Discrepancy only where a claim misses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from foulkes.decomposition import FoulkesShape, GeneralizedShape, decompose
from foulkes.partitions import (
    Partition,
    count_box_partitions,
    format_partition,
    hook_leg,
    validate_partition,
)


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


@dataclass(frozen=True)
class Prediction:
    """What one rule asserts about one multiplicity."""

    partition: Partition
    verdict: Verdict
    rule: Rule
    value: int | None = None

    def __post_init__(self):
        if self.verdict is Verdict.VALUE:
            if self.value is None:
                raise ValueError("VALUE verdict needs an explicit value")
        elif self.value is not None:
            raise ValueError(f"verdict {self.verdict} does not carry a value")

    def expected(self) -> int:
        if self.verdict is Verdict.ZERO:
            return 0
        if self.verdict is Verdict.ONE:
            return 1
        if self.verdict is Verdict.VALUE:
            return self.value
        raise ValueError("NO_CLAIM predicts nothing")


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
    """One rule's two answers as _rules gives them, indexed by whether it fires."""
    return (rule, Verdict.NO_CLAIM, None), (rule, verdict, expected)


_MANY_PARTS = _either(Rule.MANY_PARTS, Verdict.ZERO, 0)
_HOOK = _either(Rule.HOOK, Verdict.ZERO, 0)
_INSIDE_BOUND = _either(Rule.INSIDE_BOUND, Verdict.ZERO, 0)
_SMALL_INSIDE = _either(Rule.SMALL_INSIDE, Verdict.ZERO, 0)
_COLUMN_INSIDE = _either(Rule.COLUMN_INSIDE, Verdict.ONE, 1)


def _rules(lam: Partition, n: int, b: int,
           a: int | None = None) -> list[tuple[Rule, Verdict, int | None]]:
    """(rule, verdict, expected) for every rule that reads lam, in rule order:
    many-parts, hook, inside-bound and small-inside always, then, on a board
    of b blocks of size a, two-row and column-inside where lam has their form.
    expected is the multiplicity a claim commits to, None on NO_CLAIM.

    lam must be a nonempty canonical partition of n; nothing here checks it.
    In hook coordinates lam has leg k = len(lam) - 1 and inside partition
    (lam_2 - 1, lam_3 - 1, ...) without its zeros, so the inside weight is
    n - lam_1 - k, its first part is lam_2 - 1 and its tail weight is the
    rest. As the parts descend, lam is a hook when lam_2 = 1, and its inside
    is the column (1^k) when lam_2 = lam_last = 2.
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
            rules.append((Rule.TWO_ROW, Verdict.VALUE, _two_row_value(a, b, lam[1] if k else 0)))
        if column:
            rules.append(_COLUMN_INSIDE[k < b and a >= 2])
    return rules


def _prediction(lam: Partition, claim: tuple[Rule, Verdict, int | None]) -> Prediction:
    rule, verdict, expected = claim
    return Prediction(lam, verdict, rule, expected if verdict is Verdict.VALUE else None)


def _off_board(lam: Partition, index: int, b: int = 0) -> Prediction:
    """Entry index of _rules for a nonempty canonical lam of any weight, with
    no board: b only matters to many-parts."""
    return _prediction(lam, _rules(lam, sum(lam), b)[index])


def predict_many_parts(lam, b: int) -> Prediction:
    """Zero whenever the shape has more rows than there are blocks."""
    lam = validate_partition(lam)
    if not lam:
        return Prediction(lam, Verdict.NO_CLAIM, Rule.MANY_PARTS)
    return _off_board(lam, 0, b)


def predict_hook(lam) -> Prediction:
    """Zero on every hook with at least one box below the first row."""
    lam = validate_partition(lam)
    if not lam:
        raise ValueError("the empty partition has no hook shape")
    return _off_board(lam, 1)


def predict_inside_bound(lam) -> Prediction:
    """Zero when the first-column leg k outruns the inside partition.

    With inside partition alpha and n the part of its weight below its own
    first row, the claim fires when k > n and alpha_1 < (k-n)(k-n+1)/2,
    compared as 2*alpha_1 < (k-n)(k-n+1) to stay in integers.
    """
    lam = validate_partition(lam)
    if not lam:
        raise ValueError("cannot encode the empty partition")
    return _off_board(lam, 2)


def predict_small_inside(lam) -> Prediction:
    """Zero when the inside partition is light (weight between 1 and the leg)
    and is not the full column of the leg's length."""
    lam = validate_partition(lam)
    if not lam:
        raise ValueError("cannot encode the empty partition")
    return _off_board(lam, 3)


def _two_row_value(a: int, b: int, r: int) -> int:
    """Multiplicity of (ab-r, r) on the a x b board: consecutive box counts."""
    return count_box_partitions(r, a, b) - count_box_partitions(r - 1, a, b)


def two_row_formula(shape: FoulkesShape, r: int) -> tuple[Prediction, Prediction]:
    """Exact pairings against the two-row shape (degree-r, r).

    Returns two predictions: first, the inner product with the permutation
    character of the two-row Young subgroup, which counts partitions of r
    fitting in the a-by-b box; second, the irreducible multiplicity, the
    difference of consecutive box counts.
    """
    ab = shape.degree
    if ab < 1 or r < 0 or 2 * r > ab:
        raise ValueError(f"need 0 <= 2r <= degree >= 1, got r={r}")
    lam = (ab - r, r) if r else (ab,)
    boxed = count_box_partitions(r, shape.a, shape.b)
    perm = Prediction(lam, Verdict.VALUE, Rule.TWO_ROW, value=boxed)
    irr = Prediction(lam, Verdict.VALUE, Rule.TWO_ROW,
                     value=_two_row_value(shape.a, shape.b, r))
    return perm, irr


def predict_column_inside(shape: FoulkesShape, k: int) -> Prediction:
    """Multiplicity one for the shape (degree-2k, 2^k) when 1 <= k < b.

    Only claimed for block size at least 2: with singleton blocks the
    character is trivial and these shapes all get multiplicity zero.
    """
    ab = shape.degree
    if k < 1 or ab - 2 * k < 2:
        raise ValueError(f"no shape of the form (degree-2k, 2^k) for k={k}")
    lam = (ab - 2 * k,) + (2,) * k
    return _prediction(lam, _rules(lam, ab, shape.b, shape.a)[-1])


def predict_gen_hooks(shape: GeneralizedShape, lam) -> Prediction:
    """Zero on hooks whose leg reaches the number of distinct block sizes."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    leg = hook_leg(lam)
    fires = leg is not None and leg >= shape.distinct_sizes
    return Prediction(lam, Verdict.ZERO if fires else Verdict.NO_CLAIM, Rule.GEN_HOOK)


def predictions_for(shape: FoulkesShape, lam) -> tuple[Prediction, ...]:
    """Every applicable prediction for one shape of the right weight, one per
    entry of _rules."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    if not lam:
        return ()
    return tuple(_prediction(lam, claim)
                 for claim in _rules(lam, shape.degree, shape.b, shape.a))


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
    returning a report that quietly disagrees with the claims.
    """
    shape = FoulkesShape(a, b)
    start = time.perf_counter()
    table = decompose(shape, jobs=jobs, deadline=deadline)
    rows = [(lam, actual) for lam, actual in table.entries if len(lam) <= b]
    zero = sum(1 for _, actual in rows if actual == 0)
    misses, predicted = _hold(shape, rows)
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
    claim checked out over all shapes of weight a*b.
    """
    shape = FoulkesShape(a, b)
    table = decompose(shape, use_fastpath=False, jobs=jobs, deadline=deadline)
    return _hold(shape, table.entries)[0]
