"""Symmetric functions in the power-sum basis, with exact integer coefficients.

A homogeneous symmetric function f of degree n is stored sparsely as a map from
cycle types mu to the int n! * [p_mu] f: for a character, the sum of its values
over the class mu. Only the public rational values divide by n!. This basis
makes multiplication a multiset merge and plethysm by a power sum a simple
index rescaling, which is what the Foulkes computations lean on.

Foulkes tables and queries leave this basis. plethysm_h_expansion builds
the table of h_b[h_a] by running the plethysm recursion on integer Schur
tables, adding horizontal ribbon strips (partitions.ribbon_strips); single
Schur coefficients of products of h_b[h_a] come from the same recursion
pulled back from one shape (plethysm_h_pull), removing the same strips.
schur_expansion expands any series by its definition, inner products with
Schur functions. There is one form for a class function, the series
itself: its coefficient on mu is the sum of the function's values over the
class mu.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from foulkes.characters import mn_char
from foulkes.partitions import (
    Partition,
    centralizer_order,
    enum_partitions,
    from_abacus,
    ribbon_strips,
    to_abacus,
    validate_partition,
)


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


def h_series(n: int) -> PSeries:
    """Complete homogeneous symmetric function of degree n."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return PSeries(n, {
        mu: factorial(n) // centralizer_order(mu) for mu in enum_partitions(n)})


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


def schur_expansion(f: PSeries) -> dict[Partition, Fraction]:
    """Expand f over Schur functions: the returned dict maps shape to coefficient.

    This is the definition, with no strips: the coefficient of s_lam is the
    Hall inner product <f, s_lam> = sum_mu [p_mu] f * chi^lam(mu), summed over
    f's own support, for every lam. Zero coefficients are left out.
    """
    out = {}
    for lam in enum_partitions(f.degree):
        total = sum(c * mn_char(lam, mu) for mu, c in f.coeffs.items())
        if total:
            out[lam] = Fraction(total, factorial(f.degree))
    return out


def plethysm_h_expansion(b: int, a: int, max_rows: int | None = None,
                         deadline: float | None = None) -> dict[Partition, Fraction]:
    """Schur expansion of h_b[h_a], built stage by stage in the Schur basis.

    Runs the Newton recursion of plethysm_h on Schur tables instead of on
    power-sum series. With T_j = j! * a!^j * h_j[h_a] and T_0 = s_(),

        T_j = sum_{k=1..j} (j-1)!/(j-k)! * a!^k * sum_nu T_(j-k)(nu) * sum_lam (-1)^height * s_lam,

    where lam runs over nu plus a horizontal strip of a ribbons of length k
    (partitions.ribbon_strips, the ribbon Pieri rule for p_k[h_a]). Every
    stage is an int table keyed by abacus states of L = max_rows beads
    (a * b when unpruned). A shape with more than L rows cannot be written,
    so the row cap is exact and costs nothing, as a strip never removes a
    row. Only at the end do states become tuples and the coefficients get
    their one division, by b! * a!^b. `deadline` is a wall-clock budget in
    seconds for all the stages together; running past it raises
    ComputeBudgetExceeded naming the board and the stage j of b that was
    running.
    """
    if b < 0 or a < 0:
        raise ValueError("degrees must be >= 0")
    stop = None if deadline is None else time.monotonic() + deadline
    beads = b * a if max_rows is None else min(max_rows, b * a)
    stages: list[dict[int, int]] = [{to_abacus((), beads): 1}]
    unit = factorial(a)
    for j in range(1, b + 1):
        table: dict[int, int] = {}
        weight = unit  # (j-1)!/(j-k)! * a!^k, kept as a running product
        for k in range(1, j + 1):
            for state, c in stages[j - k].items():
                if stop is not None and time.monotonic() > stop:
                    raise ComputeBudgetExceeded(
                        f"{a}x{b} table passed its time limit at expansion stage {j} of {b}")
                c *= weight
                for moved, height in ribbon_strips(state, k, a):
                    table[moved] = table.get(moved, 0) + (-c if height % 2 else c)
            weight *= (j - k) * unit
        stages.append({state: c for state, c in table.items() if c})
    scale = factorial(b) * factorial(a) ** b
    return {from_abacus(state): Fraction(c, scale) for state, c in stages[b].items()}


def plethysm_h_pull(blocks, prune: bool = True):
    """Point queries on the product of h_(b_i)[h_(a_i)] over the distinct
    block sizes a_i, each appearing b_i times in `blocks`: returns a function
    from a shape lam to its Schur coefficient, a Fraction.

    This is plethysm_h_expansion's recursion pulled instead of pushed. Level
    t = 1..B takes the blocks largest first; at the j-th block of size a,

        T_t(lam) = sum_{k=1..j} (j-1)!/(j-k)! * a!^k * sum_nu (-1)^height * T_(t-k)(nu),

    where nu runs over lam minus a horizontal strip of a ribbons of length k
    (partitions.ribbon_strips, the ribbon Pieri rule for p_k[h_a]) and
    T_0(()) = 1. A level's shapes weigh its first t blocks, so a shape
    belongs to one level, and the coefficient is T_B(lam) / prod b_i! a_i!^b_i.

    With prune, level t holds abacus states of t beads: a product of t
    complete homogeneous functions has no shape with more than t rows. So a
    strip must empty the bottom k rows, and the one cut is ribbon_strips'
    floor pass, which makes only those strips. Without prune, states are
    canonical (one bead per row) and every strip is followed. The memo is
    keyed by the state alone and lives as long as the returned function.
    """
    blocks = validate_partition(blocks)
    levels: list[tuple[int, int, int]] = [(0, 0, 1)]
    scale = 1
    run = 0
    for t, a in enumerate(blocks):
        run = run + 1 if t and blocks[t - 1] == a else 1
        levels.append((a, run, factorial(a)))
        scale *= run * factorial(a)
    memo = {0: 1}

    def pull(t: int, state: int) -> int:
        total = 0
        a, run, unit = levels[t]
        weight = unit  # as in plethysm_h_expansion, with j = run
        for k in range(1, run + 1):
            acc = 0
            for nu, height in ribbon_strips(state, -k, a, prune):
                nu >>= k if prune else (~nu & nu + 1).bit_length() - 1
                value = memo.get(nu)
                if value is None:
                    value = pull(t - k, nu)
                acc += -value if height % 2 else value
            total += weight * acc
            weight *= (run - k) * unit
        memo[state] = total
        return total

    def coefficient(lam) -> Fraction:
        lam = validate_partition(lam)
        if sum(lam) != sum(blocks):
            raise ValueError(f"{lam} is not a partition of {sum(blocks)}")
        if prune and len(lam) > len(blocks):
            return Fraction(0)
        state = to_abacus(lam, len(blocks) if prune else None)
        value = memo.get(state)
        if value is None:
            value = pull(len(blocks), state)
        return Fraction(value, scale)

    return coefficient
