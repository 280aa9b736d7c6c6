from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given

from foulkes import characters
from foulkes.characters import dimension, mn_char
from foulkes.partitions import centralizer_order, conjugate, enum_partitions
from foulkes.symfunc import h_series, multiply
from oracles import (
    oracle_char_table,
    oracle_dimension,
    oracle_partitions,
    oracle_young_value,
)
from strats import partitions

FROZEN_S4 = {
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
}


def test_oracle_matches_frozen_rows():
    # pin the oracle itself to textbook values before trusting it below
    table = oracle_char_table(4)
    for shape, row in FROZEN_S4.items():
        assert table[shape] == row


@pytest.mark.parametrize("n", range(9))
def test_against_oracle(n):
    table = oracle_char_table(n)
    for lam in enum_partitions(n):
        assert {mu: mn_char(lam, mu) for mu in enum_partitions(n)} == table[lam]


def test_frozen_values():
    assert mn_char((2, 2), (3, 1)) == -1
    assert mn_char((2, 2), (2, 1, 1)) == 0
    assert mn_char((5, 4, 3), (12,)) == 0
    for shape, row in FROZEN_S4.items():
        for mu, value in row.items():
            assert mn_char(shape, mu) == value


@given(partitions(min_weight=1, max_weight=10))
def test_trivial_and_sign_rows(lam):
    n = sum(lam)
    assert mn_char((n,), lam) == 1
    assert mn_char((1,) * n, lam) == (-1) ** (n - len(lam))


@given(partitions(min_weight=1, max_weight=10), partitions(min_weight=1, max_weight=10))
def test_conjugation_twists_by_sign(lam, mu):
    if sum(lam) != sum(mu):
        return
    sign = (-1) ** (sum(mu) - len(mu))
    assert mn_char(conjugate(lam), mu) == sign * mn_char(lam, mu)


def test_input_validation():
    with pytest.raises(ValueError):
        mn_char((2, 1), (2, 2))
    with pytest.raises(ValueError):
        mn_char((2, 1), (2, 1, 0))
    with pytest.raises(ValueError):
        mn_char((1, 2), (2, 1))


def test_class_argument_order_is_free():
    assert mn_char((3, 2), (1, 2, 2)) == mn_char((3, 2), (2, 2, 1))


@given(partitions(min_weight=1, max_weight=12))
def test_dimension_is_identity_column(lam):
    assert dimension(lam) == mn_char(lam, (1,) * sum(lam))


def test_dimension_matches_hook_product():
    for n in range(21):
        for lam in oracle_partitions(n):
            assert dimension(lam) == oracle_dimension(lam), lam


def test_dimensions_square_to_the_group_order():
    for n in range(15):
        assert sum(dimension(lam) ** 2 for lam in enum_partitions(n)) == factorial(n)


def test_dimension_checks_divisibility(monkeypatch):
    monkeypatch.setattr(characters, "factorial", lambda n: 7)
    with pytest.raises(ArithmeticError, match="do not divide"):
        dimension((2, 1))


def test_young_perm_char_matches_oracle():
    # h_lam = h_lam1 * h_lam2 * ... is the Young subgroup's permutation character
    for n in range(1, 7):
        for lam in enum_partitions(n):
            series = h_series(0)
            for part in lam:
                series = multiply(series, h_series(part))
            assert series.degree == n
            assert series.coeffs == {
                mu: c for mu in enum_partitions(n)
                if (c := oracle_young_value(lam, mu) * (factorial(n) // centralizer_order(mu)))}


def test_inner_cf_orthonormality():
    classes = enum_partitions(6)
    rows = {lam: [mn_char(lam, mu) for mu in classes] for lam in classes}
    for lam, f in rows.items():
        for nu, g in rows.items():
            pairing = sum(Fraction(x * y, centralizer_order(mu))
                          for x, y, mu in zip(f, g, classes))
            assert pairing == (1 if lam == nu else 0)

