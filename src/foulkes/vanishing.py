"""Predicted multiplicities: vanishing criteria and closed formulas.

Each predicate inspects a shape combinatorially and either commits to a
multiplicity (zero, one, or an explicit count) or declines with NO_CLAIM.
census() and verify_all() then hold every claim against the exact
decomposition and report what actually happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from foulkes.decomposition import FoulkesShape, GeneralizedShape, decompose
from foulkes.partitions import (
    HookCoordinates,
    Partition,
    count_box_partitions,
    format_partition,
    hook_leg,
    to_hook_coords,
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


def predict_many_parts(lam, b: int) -> Prediction:
    """Zero whenever the shape has more rows than there are blocks."""
    return _many_parts(validate_partition(lam), b)


def _many_parts(lam: Partition, b: int) -> Prediction:
    verdict = Verdict.ZERO if len(lam) > b else Verdict.NO_CLAIM
    return Prediction(lam, verdict, Rule.MANY_PARTS)


def predict_hook(lam) -> Prediction:
    """Zero on every hook with at least one box below the first row."""
    lam = validate_partition(lam)
    leg = hook_leg(lam)
    verdict = Verdict.ZERO if leg is not None and leg >= 1 else Verdict.NO_CLAIM
    return Prediction(lam, verdict, Rule.HOOK)


def predict_inside_bound(lam) -> Prediction:
    """Zero when the first-column leg k outruns the inside partition.

    With inside partition alpha and n the part of its weight below its own
    first row, the claim fires when k > n and alpha_1 < (k-n)(k-n+1)/2,
    compared as 2*alpha_1 < (k-n)(k-n+1) to stay in integers.
    """
    lam = validate_partition(lam)
    return _inside_bound(lam, to_hook_coords(lam))


def _inside_bound(lam: Partition, coords: HookCoordinates) -> Prediction:
    k = coords.leg
    n = coords.tail_weight
    a1 = coords.inside[0] if coords.inside else 0
    fires = k > n and 2 * a1 < (k - n) * (k - n + 1)
    return Prediction(lam, Verdict.ZERO if fires else Verdict.NO_CLAIM, Rule.INSIDE_BOUND)


def predict_small_inside(lam) -> Prediction:
    """Zero when the inside partition is light (weight between 1 and the leg)
    and is not the full column of the leg's length."""
    lam = validate_partition(lam)
    return _small_inside(lam, to_hook_coords(lam))


def _small_inside(lam: Partition, coords: HookCoordinates) -> Prediction:
    m = coords.inside_weight
    fires = 1 <= m <= coords.leg and coords.inside != (1,) * coords.leg
    return Prediction(lam, Verdict.ZERO if fires else Verdict.NO_CLAIM, Rule.SMALL_INSIDE)


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
                     value=boxed - count_box_partitions(r - 1, shape.a, shape.b))
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
    claimed = 1 <= k < shape.b and shape.a >= 2
    return Prediction(lam, Verdict.ONE if claimed else Verdict.NO_CLAIM,
                      Rule.COLUMN_INSIDE)


def predict_gen_hooks(shape: GeneralizedShape, lam) -> Prediction:
    """Zero on hooks whose leg reaches the number of distinct block sizes."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    leg = hook_leg(lam)
    fires = leg is not None and leg >= shape.distinct_sizes
    return Prediction(lam, Verdict.ZERO if fires else Verdict.NO_CLAIM, Rule.GEN_HOOK)


def predictions_for(shape: FoulkesShape, lam) -> tuple[Prediction, ...]:
    """Every applicable prediction for one shape of the right weight. The
    shape is put in hook coordinates once, for all the rules that read them."""
    lam = tuple(lam)
    if not lam:
        if shape.degree:
            raise ValueError(f"{lam} is not a partition of {shape.degree}")
        return ()
    coords = to_hook_coords(lam)
    if coords.total != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    preds = [
        _many_parts(lam, shape.b),
        predict_hook(lam),
        _inside_bound(lam, coords),
        _small_inside(lam, coords),
    ]
    if len(lam) <= 2:
        preds.append(two_row_formula(shape, lam[1] if len(lam) == 2 else 0)[1])
    if len(lam) >= 2 and lam[0] >= 2 and all(p == 2 for p in lam[1:]):
        preds.append(predict_column_inside(shape, len(lam) - 1))
    return tuple(preds)


def _hold(shape: FoulkesShape, rows) -> tuple[list[Discrepancy], int]:
    """Hold each row's committed predictions against its exact multiplicity:
    the misses, and how many rows some rule calls zero."""
    misses, called = [], 0
    for lam, actual in rows:
        claims = [p for p in predictions_for(shape, lam) if p.verdict is not Verdict.NO_CLAIM]
        misses += [Discrepancy(lam, p.rule, p.expected(), actual)
                   for p in claims if p.expected() != actual]
        called += any(p.verdict is Verdict.ZERO for p in claims)
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
