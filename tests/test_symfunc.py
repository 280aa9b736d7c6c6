from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from foulkes.decomposition import foulkes_series
from foulkes.partitions import centralizer_order, enum_partitions
from foulkes.symfunc import (
    ComputeBudgetExceeded,
    PSeries,
    e_series,
    h_series,
    inner,
    multiply,
    plethysm_h,
    plethysm_h_expansion,
    plethysm_h_pull,
    plethysm_power,
    schur_expansion,
    schur_series,
)
from oracles import oracle_char
from strats import partitions

F = Fraction


class TestPSeries:
    def test_zero_coefficients_dropped(self):
        f = PSeries(2, {(2,): 0, (1, 1): 1})
        assert f.coeffs == {(1, 1): 1}

    @pytest.mark.parametrize("c", [F(1, 2), F(1), 0.5, 1.0])
    def test_non_int_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="not an int"):
            PSeries(2, {(1, 1): c})

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PSeries(3, {(2,): 1})

    def test_noncanonical_index_rejected(self):
        with pytest.raises(ValueError):
            PSeries(3, {(1, 2): 1})


class TestGenerators:
    def test_h_frozen(self):
        # n! [p_mu] h_n is the size of the class mu
        assert h_series(0).coeffs == {(): 1}
        assert h_series(1).coeffs == {(1,): 1}
        assert h_series(2).coeffs == {(2,): 1, (1, 1): 1}
        assert h_series(3).coeffs == {(3,): 2, (2, 1): 3, (1, 1, 1): 1}

    def test_e_frozen(self):
        assert e_series(0).coeffs == {(): 1}
        assert e_series(2).coeffs == {(2,): -1, (1, 1): 1}
        assert e_series(3).coeffs == {(3,): 2, (2, 1): -3, (1, 1, 1): 1}

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            h_series(-1)
        with pytest.raises(ValueError):
            e_series(-1)

    @given(st.integers(1, 9))
    def test_h_e_schur_coincidences(self, n):
        assert h_series(n) == schur_series((n,))
        assert e_series(n) == schur_series((1,) * n)

    @given(partitions(min_weight=1, max_weight=8))
    def test_schur_series_realizes_character(self, lam):
        n = sum(lam)
        assert schur_series(lam).coeffs == {
            mu: c for mu in enum_partitions(n)
            if (c := oracle_char(lam, mu) * (factorial(n) // centralizer_order(mu)))}


class TestAlgebra:
    def test_multiply_merges_indices(self):
        sq = multiply(h_series(1), h_series(1))
        assert sq.coeffs == {(1, 1): 2}

    def test_h2_sum_with_e2(self):
        lhs = multiply(h_series(1), h_series(1)).coeffs
        rhs = {}
        for mu, c in list(h_series(2).coeffs.items()) + list(e_series(2).coeffs.items()):
            rhs[mu] = rhs.get(mu, 0) + c
        assert lhs == {mu: c for mu, c in rhs.items() if c}

    @given(partitions(max_weight=6), partitions(max_weight=6))
    def test_multiply_commutes(self, lam, mu):
        f, g = schur_series(lam), schur_series(mu)
        assert multiply(f, g) == multiply(g, f)

    def test_inner_degree_mismatch(self):
        with pytest.raises(ValueError):
            inner(h_series(2), h_series(3))

    @given(partitions(min_weight=1, max_weight=8), partitions(min_weight=1, max_weight=8))
    def test_schur_orthonormality(self, lam, mu):
        if sum(lam) != sum(mu):
            return
        assert inner(schur_series(lam), schur_series(mu)) == (1 if lam == mu else 0)

    def test_kostka_numbers_from_h_products(self):
        # <h_2 h_1, s_lam> counts fillings: one each for (3) and (2,1)
        f = multiply(h_series(2), h_series(1))
        assert inner(f, schur_series((3,))) == 1
        assert inner(f, schur_series((2, 1))) == 1
        assert inner(f, schur_series((1, 1, 1))) == 0


class TestPlethysm:
    def test_power_scales_indices(self):
        # p_2[h_2] = (p_4 + p_2^2) / 2; 4! / 2 = 12 on each index
        f = plethysm_power(2, h_series(2))
        assert f.coeffs == {(4,): 12, (2, 2): 12}

    def test_power_rejects_bad_index(self):
        with pytest.raises(ValueError):
            plethysm_power(0, h_series(2))

    def test_identity_cases(self):
        assert plethysm_h(1, h_series(3)) == h_series(3)
        assert plethysm_h(0, h_series(3)).coeffs == {(): 1}
        for b in range(5):
            assert plethysm_h(b, h_series(1)) == h_series(b)

    def test_h2_of_h2_schur_content(self):
        f = plethysm_h(2, h_series(2))
        expected = {(4,): 1, (3, 1): 0, (2, 2): 1, (2, 1, 1): 0, (1, 1, 1, 1): 0}
        for lam, want in expected.items():
            assert inner(f, schur_series(lam)) == want

    def test_composition_associates(self):
        # h_2[h_2[h_1]] both groupings agree
        inner_f = plethysm_h(2, h_series(1))
        assert plethysm_h(2, inner_f) == plethysm_h(2, h_series(2))

    @given(st.integers(0, 4), st.integers(1, 4))
    def test_degree_bookkeeping(self, b, a):
        f = plethysm_h(b, h_series(a))
        assert f.degree == a * b
        identity = (1,) * (a * b)
        if a * b:
            assert f.coeffs[identity] > 0


class TestSchurExpansion:
    @given(partitions(min_weight=1, max_weight=8))
    def test_single_schur_detects_itself(self, lam):
        assert schur_expansion(schur_series(lam)) == {lam: F(1)}

    @given(partitions(min_weight=1, max_weight=7))
    def test_h_product_expansion_matches_inner_products(self, lam):
        series = h_series(0)
        for part in lam:
            series = multiply(series, h_series(part))
        expansion = schur_expansion(series)
        for mu in enum_partitions(sum(lam)):
            assert expansion.get(mu, 0) == inner(series, schur_series(mu))

    def test_expired_budget_raises(self):
        with pytest.raises(ComputeBudgetExceeded, match=r"^2x4 table passed its time limit "
                                                        r"at expansion stage 1 of 4$"):
            plethysm_h_expansion(4, 2, deadline=-1.0)


SMALL_BOARDS = [(a, b) for a in range(1, 17) for b in range(16 // a + 1)]


class TestPlethysmExpansion:
    """The Schur-basis recursion against the power-sum route it replaces."""

    def test_every_small_board_matches_power_sum_route(self):
        # the 50 boards with a*b <= 16, plus b = 0, pruned and unpruned, each
        # entry the inner product of the power-sum series with s_lam; the
        # Schur series of each degree are built once
        assert len(SMALL_BOARDS) == 66
        for n in range(17):
            basis = {lam: schur_series(lam) for lam in enum_partitions(n)}
            for a, b in SMALL_BOARDS:
                if a * b != n:
                    continue
                series = foulkes_series(a, b)
                full = {lam: c for lam, s in basis.items() if (c := inner(series, s))}
                for max_rows in (b, None):
                    expected = {lam: c for lam, c in full.items()
                                if max_rows is None or len(lam) <= max_rows}
                    assert plethysm_h_expansion(b, a, max_rows=max_rows) == expected, \
                        (a, b, max_rows)

    def test_negative_degree_rejected(self):
        for b, a in ((-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                plethysm_h_expansion(b, a)


class TestPlethysmPull:
    """Point queries by the pulled recursion against the pushed tables."""

    def test_every_small_board_matches_the_table(self):
        for a, b in SMALL_BOARDS:
            table = plethysm_h_expansion(b, a)
            for prune in (True, False):
                pull = plethysm_h_pull((a,) * b, prune)
                for lam in enum_partitions(a * b):
                    assert pull(lam) == table.get(lam, 0), (a, b, prune, lam)

    @pytest.mark.parametrize("blocks", [(3, 2, 2, 1), (4, 2, 1, 1), (2, 2, 2, 1, 1)])
    def test_products_match_the_power_sum_route(self, blocks):
        product = h_series(0)
        for size in sorted(set(blocks), reverse=True):
            product = multiply(product, plethysm_h(blocks.count(size), h_series(size)))
        for prune in (True, False):
            pull = plethysm_h_pull(blocks, prune)
            for lam in enum_partitions(sum(blocks)):
                assert pull(lam) == inner(product, schur_series(lam)), (blocks, prune, lam)

    @pytest.mark.parametrize("lam", [(2, 1, 1), (1, 2)])
    def test_checks_shape(self, lam):
        with pytest.raises(ValueError):
            plethysm_h_pull((2, 1))(lam)
