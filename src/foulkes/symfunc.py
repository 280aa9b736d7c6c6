"""Symmetric functions in the power-sum basis, with exact integer coefficients.

A homogeneous symmetric function f of degree n is stored sparsely as a map from
cycle types mu to the int n! * [p_mu] f: for a character, the sum of its values
over the class mu. Only the public rational values divide by n!. This basis
makes multiplication a multiset merge and plethysm by a power sum a simple
index rescaling, which is what the Foulkes computations lean on.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby, repeat
from math import comb, factorial

from foulkes.characters import ClassFunction, _mn, mn_char
from foulkes.partitions import (
    Partition,
    border_strip_additions,
    border_strip_removals,
    centralizer_order,
    count_box_partitions,
    enum_partitions,
    validate_partition,
)


# Support size times target shapes below which a pool costs more than it saves:
# on 2 cores, boards under 60k ran up to 5x slower pooled, and every board past
# 87k ran faster.
_POOL_MIN_WORK = 1 << 16


class ComputeBudgetExceeded(RuntimeError):
    """A computation ran past its caller-imposed wall-clock budget."""


@dataclass(frozen=True)
class PSeries:
    """Homogeneous symmetric function: coeffs[mu] = degree! * [p_mu] f, an int."""

    degree: int
    coeffs: dict[Partition, int]

    def __post_init__(self):
        clean: dict[Partition, int] = {}
        for mu, c in self.coeffs.items():
            mu = validate_partition(mu)
            if sum(mu) != self.degree:
                raise ValueError(
                    f"index {mu} has weight {sum(mu)}, series degree is {self.degree}")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} on {mu} is not an int")
            if c:
                clean[mu] = c
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, mu) -> Fraction:
        return Fraction(self.coeffs.get(tuple(mu), 0), factorial(self.degree))

    @cached_property
    def _support_trie(self) -> _SupportTrie:
        """Built by the first Schur-coefficient query; lives as long as the series."""
        return _SupportTrie(self.coeffs)


class _SupportTrie:
    """A series' support as a prefix trie over each cycle type's parts, largest
    first, with the memo of schur_coefficient's walk over it.

    Node 0 is the root. A node whose subtree holds one cycle type is a chain:
    chain[node] is (coefficient, remaining parts) and it has no children.
    Every other node has chain[node] None and kids[node] its (part, child)
    pairs. All cycle types have one weight, so none is a prefix of another
    and every one ends inside a chain.
    """

    def __init__(self, coeffs: dict[Partition, int]):
        self.kids: list[tuple[tuple[int, int], ...]] = []
        self.chain: list[tuple[int, Partition] | None] = []
        self._add(sorted(coeffs.items(), reverse=True), 0)
        self.memo: dict[tuple[Partition, int], int] = {}

    def _add(self, items: list[tuple[Partition, int]], depth: int) -> int:
        """Add the node holding items, which share their first depth parts."""
        node = len(self.kids)
        self.kids.append(())
        self.chain.append(None)
        if len(items) == 1:
            mu, c = items[0]
            self.chain[node] = (c, mu[depth:])
        else:
            self.kids[node] = tuple(
                (part, self._add(list(group), depth + 1))
                for part, group in groupby(items, key=lambda item: item[0][depth]))
        return node

    def walk(self, shape: Partition, node: int) -> int:
        """Sum over the cycle types below node of c * chi^shape(remaining parts)."""
        chain = self.chain[node]
        if chain is not None:
            return chain[0] * _mn(shape, chain[1])
        key = (shape, node)
        total = self.memo.get(key)
        if total is None:
            total = 0
            for part, child in self.kids[node]:
                for smaller, height in border_strip_removals(shape, part):
                    value = self.walk(smaller, child)
                    total += -value if height % 2 else value
            self.memo[key] = total
        return total


@lru_cache(maxsize=None)
def h_series(n: int) -> PSeries:
    """Complete homogeneous symmetric function of degree n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return PSeries(n, {
        mu: factorial(n) // centralizer_order(mu) for mu in enum_partitions(n)})


@lru_cache(maxsize=None)
def e_series(n: int) -> PSeries:
    """Elementary symmetric function of degree n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return PSeries(n, {
        mu: (-1) ** (n - len(mu)) * (factorial(n) // centralizer_order(mu))
        for mu in enum_partitions(n)})


def schur_series(lam: Partition) -> PSeries:
    """Schur function of shape lam, expanded over all cycle types of its weight."""
    lam = validate_partition(lam)
    n = sum(lam)
    return PSeries(n, {
        mu: mn_char(lam, mu) * (factorial(n) // centralizer_order(mu))
        for mu in enum_partitions(n)})


def multiply(f: PSeries, g: PSeries) -> PSeries:
    """Product of symmetric functions; indices merge as multisets."""
    scale = comb(f.degree + g.degree, f.degree)
    out: dict[Partition, int] = {}
    for mu, c in f.coeffs.items():
        for nu, d in g.coeffs.items():
            key = tuple(sorted(mu + nu, reverse=True))
            out[key] = out.get(key, 0) + c * d * scale
    return PSeries(f.degree + g.degree, out)


def plethysm_power(k: int, f: PSeries) -> PSeries:
    """Plethysm of the k-th power sum with f: every index scales by k."""
    if k < 1:
        raise ValueError("power-sum index must be >= 1")
    scale = factorial(k * f.degree) // factorial(f.degree)
    return PSeries(k * f.degree, {
        tuple(k * m for m in mu): c * scale for mu, c in f.coeffs.items()})


def plethysm_h(b: int, f: PSeries) -> PSeries:
    """Plethysm of the complete homogeneous function of degree b with f.

    Uses the Newton-style recursion b*g_b = sum_k (p_k composed with f) * g_(b-k),
    which stays in the power-sum basis throughout.
    """
    if b < 0:
        raise ValueError("degree must be >= 0")
    stages = [PSeries(0, {(): 1})]
    powers = {}
    for j in range(1, b + 1):
        acc: dict[Partition, int] = {}
        for k in range(1, j + 1):
            if k not in powers:
                powers[k] = plethysm_power(k, f)
            for mu, c in multiply(powers[k], stages[j - k]).coeffs.items():
                acc[mu] = acc.get(mu, 0) + c
        if any(c % j for c in acc.values()):
            raise ArithmeticError(f"plethysm stage {j} is not divisible by {j}")
        stages.append(PSeries(j * f.degree, {mu: c // j for mu, c in acc.items()}))
    return stages[b]


def inner(f: PSeries, g: PSeries) -> Fraction:
    """Hall inner product; power sums are orthogonal with weight z_mu."""
    if f.degree != g.degree:
        raise ValueError("inner product needs equal degrees")
    small, large = (f.coeffs, g.coeffs) if len(f.coeffs) <= len(g.coeffs) else (g.coeffs, f.coeffs)
    total = 0
    for mu, c in small.items():
        d = large.get(mu)
        if d is not None:
            total += c * d * centralizer_order(mu)
    return Fraction(total, factorial(f.degree) ** 2)


def schur_coefficient(f: PSeries, lam: Partition) -> Fraction:
    """Coefficient of the Schur function s_lam in f: sum of coeffs * chi^lam / n!.

    The Schur coefficient on a power sum is the character value over the
    centralizer order, and the weight in the inner product cancels that
    order exactly. The sum is one Murnaghan-Nakayama walk over f's support,
    held as a trie over each cycle type's parts in descending order (the
    largest strip first prunes soonest): each step peels one border strip
    off lam. A subtree holding a single cycle type falls through to the
    character memo, so a first query costs no more than the plain sum over
    the support. The walk's memo, keyed by (shape, trie node), lives with
    the series, so repeated queries on one series share their work.
    """
    lam = validate_partition(lam)
    if sum(lam) != f.degree:
        raise ValueError(f"shape weight {sum(lam)} differs from series degree {f.degree}")
    return Fraction(f._support_trie.walk(lam, 0), factorial(f.degree))


def to_class_function(f: PSeries) -> ClassFunction:
    """Reinterpret f as the class function it represents; must be integer valued."""
    values = {}
    for mu in enum_partitions(f.degree):
        z = centralizer_order(mu)
        v, rem = divmod(f.coeffs.get(mu, 0) * z, factorial(f.degree))
        if rem:
            raise ValueError(f"value on class {mu} is {f[mu] * z}, not an integer")
        values[mu] = v
    return ClassFunction(degree=f.degree, values=values)


def schur_expansion(f: PSeries, max_rows: int | None = None, jobs: int = 1,
                    deadline: float | None = None) -> dict[Partition, Fraction]:
    """Expand f over Schur functions: the returned dict maps shape to coefficient.

    Walks the support as a prefix trie over the cycle parts, smallest first,
    keeping a running bag of shapes built by inserting one border strip per
    cycle length; partial insertions shared by many cycle types are computed
    once. With max_rows set, shapes are pruned the moment they grow too many
    rows, which is exact because strip insertion never shrinks the row count.
    `deadline` is one wall-clock budget in seconds for the whole expansion,
    which the worker processes honour too. `jobs` > 1 splits the support
    across that many workers, at most one per core, but only when support
    size times target shapes reaches _POOL_MIN_WORK; smaller expansions run
    in-process whatever `jobs` is.
    """
    items = sorted((mu[::-1], c) for mu, c in f.coeffs.items())
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    jobs = min(jobs, os.cpu_count() or 1)
    stop = None if deadline is None else time.monotonic() + deadline
    work = len(items) * count_box_partitions(f.degree, f.degree, max_rows or f.degree)
    if jobs == 1 or work < _POOL_MIN_WORK:
        out = _expand_items(items, max_rows, stop)
    else:
        width = max(1, len(items) // (4 * jobs))
        chunks = [items[i:i + width] for i in range(0, len(items), width)]
        out = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_expand_items, chunks, repeat(max_rows), repeat(stop)):
                for shape, c in part.items():
                    out[shape] = out.get(shape, 0) + c
    scale = factorial(f.degree)
    return {shape: Fraction(c, scale) for shape, c in out.items() if c}


def _expand_items(items, max_rows, stop) -> dict[Partition, int]:
    """Strip-insertion sums over sorted (ascending parts, coeff) items, until `stop`:
    a system-wide time.monotonic() reading, so workers share their parent's deadline."""
    out: dict[Partition, int] = {}

    def rec(lo: int, hi: int, depth: int, state: dict[Partition, int]) -> None:
        if stop is not None and time.monotonic() > stop:
            raise ComputeBudgetExceeded("schur expansion passed its time limit")
        i = lo
        while i < hi:
            mu = items[i][0]
            if len(mu) == depth:
                c = items[i][1]
                for shape, m in state.items():
                    out[shape] = out.get(shape, 0) + c * m
                i += 1
                continue
            part = mu[depth]
            j = i
            while j < hi and len(items[j][0]) > depth and items[j][0][depth] == part:
                j += 1
            nxt: dict[Partition, int] = {}
            for shape, m in state.items():
                for nshape, height in border_strip_additions(shape, part, max_rows):
                    nxt[nshape] = nxt.get(nshape, 0) + (-m if height % 2 else m)
            nxt = {k: v for k, v in nxt.items() if v}
            if nxt:
                rec(i, j, depth + 1, nxt)
            i = j

    rec(0, len(items), 0, {(): 1})
    return {shape: c for shape, c in out.items() if c}
