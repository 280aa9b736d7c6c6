"""Foulkes-type permutation characters and their irreducible decompositions.

The character of the symmetric group acting on set partitions of {1..ab}
into b blocks of size a corresponds, under the characteristic map, to the
plethysm h_b[h_a]. The generalized variant allows several distinct block
sizes and multiplies the matching plethysms together.
"""

from __future__ import annotations

import csv
import io
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from foulkes import symfunc
from foulkes.characters import dimension
from foulkes.partitions import (
    Partition,
    dominates,
    enum_partitions,
    format_partition,
    validate_partition,
)


@dataclass(frozen=True)
class FoulkesShape:
    """b unordered blocks of size a; the action lives on S_(a*b)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 0:
            raise ValueError(f"need block size >= 1 and block count >= 0, got {self}")

    @property
    def degree(self) -> int:
        return self.a * self.b

    @property
    def blocks_partition(self) -> Partition:
        return (self.a,) * self.b

    @property
    def omega_size(self) -> int:
        """Number of set partitions being permuted."""
        return factorial(self.degree) // (factorial(self.a) ** self.b * factorial(self.b))


@dataclass(frozen=True)
class GeneralizedShape:
    """Blocks of several sizes: pairs of (size, count), sizes strictly decreasing."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(s), int(m)) for s, m in self.pairs))
        for i, (size, count) in enumerate(self.pairs):
            if size < 1 or count < 1:
                raise ValueError(f"sizes and counts must be >= 1: {self.pairs}")
            if i and self.pairs[i - 1][0] <= size:
                raise ValueError(f"sizes must strictly decrease: {self.pairs}")

    @property
    def degree(self) -> int:
        return sum(size * count for size, count in self.pairs)

    @property
    def blocks_partition(self) -> Partition:
        out = []
        for size, count in self.pairs:
            out.extend([size] * count)
        return tuple(out)

    @property
    def distinct_sizes(self) -> int:
        return len(self.pairs)

    @property
    def omega_size(self) -> int:
        denom = 1
        for size, count in self.pairs:
            denom *= factorial(size) ** count * factorial(count)
        return factorial(self.degree) // denom


@lru_cache(maxsize=None)
def foulkes_series(a: int, b: int) -> symfunc.PSeries:
    """Power-sum expansion of the Foulkes character for b blocks of size a,
    checked by _checked when it is built."""
    series = symfunc.plethysm_h(b, symfunc.h_series(a))
    return _checked(f"{a}x{b}", series, FoulkesShape(a, b).omega_size)


def _checked(label: str, series: symfunc.PSeries, omega_size: int) -> symfunc.PSeries:
    """The series of a transitive permutation character on |Omega| points:
    its degree (the coefficient on 1^n) is |Omega|, and it holds the trivial
    character once, so its coefficients sum to n!. A miss raises
    ArithmeticError naming the board, which the CLI maps to exit code 1."""
    n = series.degree
    identity = series.coeffs.get((1,) * n, 0)
    if identity != omega_size:
        raise ArithmeticError(
            f"{label} series: coefficient on 1^{n} is {identity}, not |Omega| = {omega_size}")
    total = sum(series.coeffs.values())
    if total != factorial(n):
        raise ArithmeticError(f"{label} series: coefficients sum to {total}, not {n}!")
    return series


def _exact(value, label: str, *args) -> int:
    """A multiplicity or pairing as an int; it must be a whole number >= 0.
    The label, %-formatted with args only on a miss, names the board and the
    route (table, query or pairing)."""
    if value.denominator != 1:
        raise ArithmeticError(f"{label % args} came out {value}, not an integer")
    if value < 0:
        raise ArithmeticError(f"{label % args} came out negative: {value}")
    return int(value)


def multiplicity(shape: FoulkesShape, lam, use_fastpath: bool = True) -> int:
    """Multiplicity of the irreducible indexed by lam in the Foulkes character.

    The fast path answers zero when lam fails to dominate the all-blocks-equal
    shape (a^b), which covers every shape with more rows than blocks, and
    prunes the pull recursion the same way (symfunc.plethysm_h_pull). Pass
    use_fastpath=False to run the recursion unpruned.
    """
    return _query(f"{shape.a}x{shape.b}", shape, lam, use_fastpath)


def gen_multiplicity(shape: GeneralizedShape, lam, use_fastpath: bool = True) -> int:
    """Multiplicity of the irreducible indexed by lam in the generalized character."""
    return _query(f"blocks {format_partition(shape.blocks_partition)}", shape, lam,
                  use_fastpath)


# One checked pull, and so one memo, per (blocks, use_fastpath), for the process.
_PULLS: dict = {}


def _query(label: str, shape, lam, use_fastpath: bool) -> int:
    """One point query on the product of h_b[h_a] over shape's blocks. The
    first query of a (blocks, mode) pair checks that the trivial character
    appears exactly once; a miss raises ArithmeticError naming the board."""
    lam = validate_partition(lam)
    if sum(lam) != shape.degree:
        raise ValueError(f"{lam} is not a partition of {shape.degree}")
    blocks = shape.blocks_partition
    if use_fastpath and not dominates(lam, blocks):
        return 0
    pull = _PULLS.get((blocks, use_fastpath))
    if pull is None:
        pull = symfunc.plethysm_h_pull(blocks, use_fastpath)
        trivial = pull((shape.degree,) if shape.degree else ())
        if trivial != 1:
            raise ArithmeticError(
                f"{label} query: the trivial character appears {trivial} times, not once")
        _PULLS[blocks, use_fastpath] = pull
    return _exact(pull(lam), "%s query: multiplicity of %s", label, lam)


def exterior_pairing(shape: FoulkesShape, k: int) -> int:
    """Inner product of the Foulkes character with e_k * h_(degree - k)."""
    if not 0 <= k <= shape.degree:
        raise ValueError(f"k must lie in 0..{shape.degree}")
    probe = symfunc.multiply(symfunc.e_series(k), symfunc.h_series(shape.degree - k))
    return _exact(symfunc.inner(foulkes_series(shape.a, shape.b), probe),
                  "%dx%d pairing: e_%d h_%d", shape.a, shape.b, k, shape.degree - k)


def orbit_size(a: int, b: int, lam) -> int:
    """Orbit size of a block partition refined by lam under the two-level action.

    lam records how many points each of p distinguished blocks donates to a
    marked set of size |lam|; it must fit in the a-by-b box. Closed product
    formula, checked for exact divisibility at each of the two factors.
    """
    lam = validate_partition(lam)
    r = sum(lam)
    p = len(lam)
    if p > b or (lam and lam[0] > a):
        raise ValueError(f"{lam} does not fit in the {a}x{b} box")
    mults = Counter(lam)
    top_den = 1
    for part, count in mults.items():
        top_den *= factorial(part) ** count * factorial(count)
    top, rem = divmod(factorial(r), top_den)
    if rem:
        raise ArithmeticError("marked-set factor is not an integer")
    bottom_den = factorial(a) ** (b - p) * factorial(b - p)
    for part in lam:
        bottom_den *= factorial(a - part)
    bottom, rem = divmod(factorial(a * b - r), bottom_den)
    if rem:
        raise ArithmeticError("block-completion factor is not an integer")
    return top * bottom


@dataclass(frozen=True)
class DecompositionTable:
    """Full multiplicity table of one Foulkes character, rows in descending lex."""

    a: int
    b: int
    entries: tuple[tuple[Partition, int], ...]

    @property
    def nonzero_entries(self) -> tuple[tuple[Partition, int], ...]:
        return tuple((lam, m) for lam, m in self.entries if m)

    @property
    def dimension_sum(self) -> int:
        return sum(m * dimension(lam) for lam, m in self.entries if m)

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "entries": [
                {"lambda": format_partition(lam), "mult": m}
                for lam, m in self.entries
            ],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["lambda", "mult", "dimension"])
        for lam, m in self.entries:
            writer.writerow([format_partition(lam), m, dimension(lam)])
        return buf.getvalue()


def decompose(shape: FoulkesShape, use_fastpath: bool = True,
              jobs: int = 1, deadline: float | None = None) -> DecompositionTable:
    """Decompose one Foulkes character into irreducibles, every shape listed.

    The whole table comes from symfunc.plethysm_h_expansion: the Newton
    recursion for h_b[h_a], run stage by stage on integer Schur tables by
    adding horizontal ribbon strips, with no power-sum series. The
    fast path caps every stage at b rows (exact, shapes with more rows cannot
    appear); use_fastpath=False runs it unpruned so the structural zeros are
    recomputed the hard way. The table lists every partition of a*b, zeros
    included. Every run checks that the table accounts for every set
    partition: sum of mult * dim = |Omega|. `jobs` must be >= 1 and changes
    nothing: the table is computed in-process. `deadline` is a wall-clock
    budget in seconds for the expansion and the listing together; running
    past it raises symfunc.ComputeBudgetExceeded naming the stage.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    stop = None if deadline is None else time.monotonic() + deadline
    max_rows = shape.b if use_fastpath else None
    expansion = symfunc.plethysm_h_expansion(
        shape.b, shape.a, max_rows=max_rows, deadline=deadline)
    entries = tuple(
        (lam, _exact(value, "%dx%d table: multiplicity of %s", shape.a, shape.b, lam)
         if (value := expansion.get(lam)) else 0)
        for lam in enum_partitions(shape.degree))
    if stop is not None and time.monotonic() > stop:
        raise symfunc.ComputeBudgetExceeded(
            f"{shape.a}x{shape.b} table passed its time limit listing the "
            f"partitions of {shape.degree}")
    table = DecompositionTable(a=shape.a, b=shape.b, entries=entries)
    if table.dimension_sum != shape.omega_size:
        raise ArithmeticError(
            f"{shape.a}x{shape.b} table: sum of mult * dim is {table.dimension_sum}, "
            f"not |Omega| = {shape.omega_size}")
    return table
