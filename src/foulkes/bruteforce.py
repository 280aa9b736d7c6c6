"""Brute-force ground truth on explicit set partitions.

Everything here enumerates actual set partitions of {1..n} and counts fixed
points directly. It is exponentially slow and capped accordingly; its only
job is to anchor the fast algebraic routes to something unarguable.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import factorial

from foulkes.partitions import (
    Partition,
    centralizer_order,
    enum_partitions,
    fits_inside,
    validate_partition,
)
from foulkes.symfunc import PSeries

DEFAULT_CAP = 12

SetPartition = tuple[tuple[int, ...], ...]


def enum_omega(block_sizes, cap: int = DEFAULT_CAP) -> list[SetPartition]:
    """All set partitions of {1..n} with the given multiset of block sizes.

    Each block is listed ascending and blocks are ordered by least element,
    which the recursion produces directly: the smallest unplaced point leads
    the next block. Refuses n > cap so a typo cannot start a week-long loop.
    """
    sizes = sorted((int(s) for s in block_sizes), reverse=True)
    if any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive: {block_sizes}")
    n = sum(sizes)
    if n > cap:
        raise ValueError(f"{n} points is past cap={cap}; pass a bigger cap on purpose")
    remaining = Counter(sizes)
    out: list[SetPartition] = []
    acc: list[tuple[int, ...]] = []

    def rec(points: tuple[int, ...]) -> None:
        if not points:
            out.append(tuple(acc))
            return
        lead, rest = points[0], points[1:]
        for size in sorted(remaining, reverse=True):
            if not remaining[size]:
                continue
            remaining[size] -= 1
            for companions in combinations(rest, size - 1):
                chosen = set(companions)
                acc.append((lead,) + companions)
                rec(tuple(p for p in rest if p not in chosen))
                acc.pop()
            remaining[size] += 1

    rec(tuple(range(1, n + 1)))
    return out


def block_partition_count(block_sizes) -> int:
    """len(enum_omega(block_sizes)) by formula, with no cap."""
    sizes = Counter(int(s) for s in block_sizes)
    if any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive: {block_sizes}")
    n = sum(s * m for s, m in sizes.items())
    denom = 1
    for size, count in sizes.items():
        denom *= factorial(size) ** count * factorial(count)
    total, rem = divmod(factorial(n), denom)
    if rem:
        raise ArithmeticError("set partition count came out fractional")
    return total


def canonical_form(sp) -> SetPartition:
    """Sort within blocks, then order blocks by content."""
    return tuple(sorted(tuple(sorted(block)) for block in sp))


def format_set_partition(sp: SetPartition) -> str:
    """Compact display: '12|34' for single-digit points, commas otherwise."""
    if all(x <= 9 for block in sp for x in block):
        return "|".join("".join(str(x) for x in block) for block in sp)
    return "|".join(",".join(str(x) for x in block) for block in sp)


def cycle_type_permutation(mu) -> tuple[int, ...]:
    """A permutation of {1..n} with cycle type mu: consecutive cycles, longest
    first. Entry i-1 holds the image of i."""
    mu = tuple(sorted(mu, reverse=True))
    if mu and mu[-1] < 1:
        raise ValueError(f"cycle lengths must be positive: {mu}")
    image = []
    start = 1
    for length in mu:
        image.extend(range(start + 1, start + length))
        image.append(start)
        start += length
    return tuple(image)


def apply_permutation(perm: tuple[int, ...], sp) -> SetPartition:
    """Relabel every point through perm and recanonicalize."""
    return canonical_form(tuple(perm[x - 1] for x in block) for block in sp)


def fixed_count(omega, perm: tuple[int, ...]) -> int:
    return sum(1 for sp in omega if apply_permutation(perm, sp) == sp)


def brute_foulkes_char(block_sizes, cap: int = DEFAULT_CAP) -> PSeries:
    """Permutation character of S_n on the set partitions, counted point by point.

    Returned as a series: the fixed-point count on each cycle type mu times
    the class size n!/z_mu. Works for any multiset of block sizes, so it
    anchors the generalized characters as well as the equal-blocks ones.
    """
    omega = enum_omega(block_sizes, cap)
    n = sum(int(s) for s in block_sizes)
    return PSeries(n, {
        mu: fixed_count(omega, cycle_type_permutation(mu)) * (factorial(n) // centralizer_order(mu))
        for mu in enum_partitions(n)})


def linked_partition(sp, r: int) -> Partition:
    """How the marked points {1..r} spread over the blocks, as a partition."""
    counts = (sum(1 for x in block if x <= r) for block in sp)
    return tuple(sorted((c for c in counts if c), reverse=True))


def brute_restriction_orbits(a: int, b: int, r: int,
                             cap: int = DEFAULT_CAP) -> dict[Partition, int]:
    """Fiber sizes of the marked-spread map over all b blocks of size a."""
    if not 0 <= r <= a * b:
        raise ValueError(f"need 0 <= r <= {a * b}")
    fibers: Counter = Counter()
    for sp in enum_omega((a,) * b, cap):
        fibers[linked_partition(sp, r)] += 1
    return dict(fibers)


def _adjacent_swap(n: int, i: int) -> tuple[int, ...]:
    image = list(range(1, n + 1))
    image[i - 1], image[i] = image[i], image[i - 1]
    return tuple(image)


def verify_trivial_quotient(a: int, b: int, beta: int, lam,
                            cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """Check one fiber of the marked-spread map collapses to plain set partitions.

    Marks are {1..beta} and lam says how they spread over blocks. Deleting the
    marks from each block leaves a set partition of the unmarked points with
    block sizes a-lam_i plus untouched blocks of size a. Two fiber elements
    share an image exactly when a permutation of the marks alone connects
    them, so mark-deletion should identify the mark-symmetry orbits of the
    fiber with all such set partitions, one to one; the whole fiber should be
    a single orbit once the unmarked symmetries join in. Violations raise;
    success returns (mark-orbit count, target count), which are then equal.
    """
    lam = validate_partition(lam)
    if sum(lam) != beta:
        raise ValueError(f"{lam} must be a partition of beta={beta}")
    if not fits_inside(lam, (a,) * b):
        raise ValueError(f"{lam} does not fit in the {a}x{b} box")
    n = a * b
    fiber = [sp for sp in enum_omega((a,) * b, cap)
             if linked_partition(sp, beta) == lam]
    eta = [a] * (b - len(lam)) + [a - part for part in lam]
    eta = [s for s in eta if s]
    target = block_partition_count(eta)
    eta_counter = Counter(eta)

    image_of = []
    for sp in fiber:
        image = canonical_form(
            stripped for block in sp
            if (stripped := tuple(x for x in block if x > beta)))
        if Counter(len(block) for block in image) != eta_counter:
            raise ArithmeticError(f"image of {format_set_partition(sp)} has wrong block sizes")
        image_of.append(image)
    if len(set(image_of)) != target:
        raise ArithmeticError(
            f"mark-deletion reaches {len(set(image_of))} of {target} targets")

    index = {sp: i for i, sp in enumerate(fiber)}
    parent = list(range(len(fiber)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union_under(swaps) -> None:
        for sp, i in index.items():
            for pos in swaps:
                other = apply_permutation(_adjacent_swap(n, pos), sp)
                ri, rj = find(i), find(index[other])
                if ri != rj:
                    parent[ri] = rj

    union_under(range(1, beta))
    orbit_image: dict[int, SetPartition] = {}
    for i, image in enumerate(image_of):
        known = orbit_image.setdefault(find(i), image)
        if known != image:
            raise ArithmeticError("one mark orbit hit two different images")
    if len(orbit_image) != target:
        raise ArithmeticError(
            f"{len(orbit_image)} mark orbits against {target} targets; "
            "deletion does not separate orbits")

    union_under(range(beta + 1, n))
    roots = {find(i) for i in range(len(fiber))}
    if len(roots) > 1:
        raise ArithmeticError(f"fiber of {lam} splits into {len(roots)} orbits")
    return len(orbit_image), target
