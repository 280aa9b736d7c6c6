"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every expected number here was either computed by an independent route
(brute-force set partitions, the Young/Gram-Schmidt oracle, closed counting
formulas) or verified by hand on small cases before being frozen. Time
tolerances are asserted, not aspirational.
"""

import os
import time
from fractions import Fraction

import pytest

from foulkes.bruteforce import brute_foulkes_char, brute_restriction_orbits
from foulkes.characters import dimension, mn_char
from foulkes.decomposition import (
    FoulkesShape,
    GeneralizedShape,
    exterior_pairing,
    foulkes_series,
    gen_multiplicity,
    multiplicity,
    orbit_size,
)
from foulkes.partitions import (
    box_partitions,
    count_box_partitions,
    enum_partitions,
    pieri_add,
)
from foulkes.symfunc import (
    h_series,
    inner,
    multiply,
    schur_expansion,
    schur_series,
)
from foulkes.vanishing import Verdict, census, predict_gen_hooks, verify_all


def shapes_with_degree_up_to(limit):
    return [(a, b) for a in range(1, limit + 1)
            for b in range(1, limit // a + 1)]


class Clock:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.perf_counter()

    def check(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{label}: {elapsed:.1f}s over {self.budget}s budget"
        print(f"{label}: pass in {elapsed:.1f}s (budget {self.budget}s)")


def test_criterion_01_exact_series_equals_brute_force():
    clock = Clock(60)
    boards = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
              (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2)]
    for a, b in boards:
        assert foulkes_series(a, b) == brute_foulkes_char((a,) * b), (a, b)
    clock.check(f"criterion 1: algebraic character equals brute force on {len(boards)} boards")


def test_criterion_02_hooks_vanish():
    clock = Clock(300)
    boards = shapes_with_degree_up_to(16) + [(3, 6), (6, 3)]
    checked = 0
    for a, b in boards:
        shape = FoulkesShape(a, b)
        n = a * b
        for r in range(1, n):
            hook = (n - r,) + (1,) * r
            assert multiplicity(shape, hook, use_fastpath=False) == 0, (a, b, hook)
            checked += 1
    clock.check(f"criterion 2: {checked} hook multiplicities all zero, no shortcuts")


def test_criterion_03_two_row_counts():
    clock = Clock(300)
    checked = 0
    for a, b in shapes_with_degree_up_to(16):
        shape = FoulkesShape(a, b)
        series = foulkes_series(a, b)
        n = a * b
        for r in range(0, n // 2 + 1):
            lam = (n - r, r) if r else (n,)
            boxed = count_box_partitions(r, a, b)
            # permutation-character pairing counts box partitions outright
            probe = multiply(h_series(n - r), h_series(r))
            assert inner(series, probe) == boxed, (a, b, r)
            # irreducible multiplicity is the consecutive difference
            expected = boxed - count_box_partitions(r - 1, a, b)
            assert multiplicity(shape, lam) == expected, (a, b, r)
            # swapping the roles of block size and count changes nothing here
            assert multiplicity(FoulkesShape(b, a), lam) == expected, (a, b, r)
            checked += 1
    clock.check(f"criterion 3: two-row counts exact at {checked} points, swap-symmetric")


def test_criterion_04_exterior_pairings():
    clock = Clock(300)
    for a, b in shapes_with_degree_up_to(16):
        shape = FoulkesShape(a, b)
        values = [exterior_pairing(shape, k) for k in range(min(12, a * b) + 1)]
        expected = [1] + [1 if a * b >= 1 else 0] + [0] * (len(values) - 2)
        assert values == expected[:len(values)], (a, b, values)
    clock.check("criterion 4: exterior pairings are 1, 1, then all zero")


def test_criterion_05_all_claims_hold_exactly():
    clock = Clock(600)
    boards = [(3, 4), (4, 3), (2, 6), (6, 2), (2, 7), (3, 5), (5, 3)]
    for a, b in boards:
        assert verify_all(a, b) == [], (a, b)
    clock.check(f"criterion 5: every committed claim verified exactly on {len(boards)} boards")


@pytest.mark.slow
def test_criterion_06_census_at_thirty():
    clock = Clock(3600)
    jobs = min(8, os.cpu_count() or 1)
    report = census(3, 10, jobs=jobs)
    assert report.total == count_box_partitions(30, 30, 10)
    assert report.zero == 1909
    assert report.predicted == 492
    clock.check("criterion 6: degree-30 census reproduces 1909 zeros, 492 predicted")


def test_criterion_07_column_inside_multiplicity_one():
    clock = Clock(300)
    checked = 0
    for a, b in [(2, 4), (3, 4), (2, 5), (3, 5), (4, 4)]:
        shape = FoulkesShape(a, b)
        for k in range(1, b):
            lam = (a * b - 2 * k,) + (2,) * k
            assert multiplicity(shape, lam) == 1, (a, b, k)
            checked += 1
    clock.check(f"criterion 7: column-inside shapes have multiplicity one ({checked} cases)")


def test_criterion_08_restriction_orbit_structure():
    clock = Clock(120)
    checked = 0
    for a, b in shapes_with_degree_up_to(10):
        for r in range(a * b):
            fibers = brute_restriction_orbits(a, b, r)
            assert set(fibers) == set(box_partitions(r, a, b)), (a, b, r)
            for lam, size in fibers.items():
                assert size == orbit_size(a, b, lam), (a, b, r, lam)
            checked += 1
    clock.check(f"criterion 8: orbit keys and sizes match the closed formula ({checked} restrictions)")


def test_criterion_09_character_machinery_self_consistent():
    clock = Clock(300)
    for n in range(1, 11):
        rows = {lam: schur_series(lam) for lam in enum_partitions(n)}
        for lam, f in rows.items():
            for mu, g in rows.items():
                assert inner(f, g) == (1 if lam == mu else 0), (lam, mu)
    for n in range(1, 15):
        for lam in enum_partitions(n):
            assert dimension(lam) == mn_char(lam, (1,) * n), lam
    for weight in range(0, 10):
        for lam in enum_partitions(weight):
            for k in range(0, 10 - weight):
                product = multiply(schur_series(lam), h_series(k))
                expected = {mu: Fraction(1) for mu in pieri_add(lam, k)}
                assert schur_expansion(product) == expected, (lam, k)
    clock.check("criterion 9: orthonormal to 10, dimensions to 14, one-row growth to 9")


def test_criterion_10_generalized_hooks_vanish():
    clock = Clock(300)
    checked = 0
    for pairs in [((2, 1), (1, 2)), ((3, 1), (1, 2)), ((3, 2), (2, 1)), ((2, 2), (1, 1))]:
        shape = GeneralizedShape(pairs)
        n = shape.degree
        for r in range(shape.distinct_sizes, n):
            hook = (n - r,) + (1,) * r
            assert predict_gen_hooks(shape, hook).verdict is Verdict.ZERO
            assert gen_multiplicity(shape, hook, use_fastpath=False) == 0, (pairs, hook)
            checked += 1
    clock.check(f"criterion 10: generalized hooks vanish past the size count ({checked} cases)")
