import pytest
from hypothesis import given, strategies as st

from foulkes.partitions import (
    HookCoordinates,
    box_partitions,
    centralizer_order,
    conjugate,
    count_box_partitions,
    dominates,
    enum_partitions,
    fits_inside,
    format_partition,
    from_abacus,
    from_hook_coords,
    parse_partition,
    pieri_add,
    ribbon_strips,
    to_abacus,
    to_hook_coords,
    validate_partition,
)
from foulkes import characters
from foulkes.characters import mn_char
from foulkes.symfunc import h_series, inner, multiply, plethysm_power, schur_series
from oracles import oracle_strip_additions, oracle_strip_removals
from strats import partitions

from math import factorial


class TestParsing:
    def test_plain(self):
        assert parse_partition("7,3,1,1") == (7, 3, 1, 1)

    def test_exponents(self):
        assert parse_partition("3^10") == (3,) * 10
        assert parse_partition("4,2^3,1") == (4, 2, 2, 2, 1)

    def test_out_of_order_input_is_canonicalized(self):
        assert parse_partition("1,3,2") == (3, 2, 1)

    @pytest.mark.parametrize("bad", ["", "3,", "0", "2^0", "0^3", "1, 2", "a", "3^^2", "-1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    def test_weight_is_checked_before_repeats_expand(self):
        assert parse_partition("4,2^3", weight=10) == (4, 2, 2, 2)
        with pytest.raises(ValueError, match="is not a partition of 18"):
            parse_partition("1^100000000000", weight=18)

    def test_format_empty(self):
        assert format_partition(()) == ""

    @given(partitions())
    def test_round_trip(self, lam):
        if lam:
            assert parse_partition(format_partition(lam)) == lam

    def test_validate_rejects_ascending(self):
        with pytest.raises(ValueError):
            validate_partition((1, 2))
        with pytest.raises(ValueError):
            validate_partition((2, 0))


class TestOrders:
    def test_conjugate_frozen(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate(()) == ()

    @given(partitions())
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions(min_weight=1))
    def test_dominance_extremes(self, lam):
        n = sum(lam)
        assert dominates((n,), lam)
        assert dominates(lam, (1,) * n)

    def test_dominance_needs_equal_weight(self):
        with pytest.raises(ValueError):
            dominates((2,), (1, 1, 1))

    @given(partitions(), partitions())
    def test_dominance_matches_padded_definition(self, lam, mu):
        if sum(lam) != sum(mu):
            return
        width = max(len(lam), len(mu), 1)
        padded_l = lam + (0,) * (width - len(lam))
        padded_m = mu + (0,) * (width - len(mu))
        expected = all(
            sum(padded_l[: i + 1]) >= sum(padded_m[: i + 1]) for i in range(width))
        assert dominates(lam, mu) == expected

    def test_containment_counts_extra_rows(self):
        assert not fits_inside((1, 1, 1), (2, 2))
        assert fits_inside((2, 1), (2, 2))

    @given(partitions(), partitions())
    def test_containment_implies_row_comparison(self, lam, mu):
        if fits_inside(lam, mu):
            padded = mu + (0,) * len(lam)
            assert all(x <= y for x, y in zip(lam, padded))


class TestHooks:
    def test_coords_frozen(self):
        assert to_hook_coords((7, 3, 1, 1)) == HookCoordinates(total=12, leg=3, inside=(2,))
        assert from_hook_coords(HookCoordinates(total=10, leg=3, inside=(3,))) == (4, 4, 1, 1)

    def test_coords_reject_short_first_row(self):
        with pytest.raises(ValueError):
            HookCoordinates(total=9, leg=3, inside=(3,))

    def test_coords_reject_deep_inside(self):
        with pytest.raises(ValueError):
            HookCoordinates(total=10, leg=1, inside=(1, 1))

    @given(partitions(min_weight=1, max_weight=25))
    def test_coords_round_trip(self, lam):
        coords = to_hook_coords(lam)
        assert from_hook_coords(coords) == lam
        assert coords.total == sum(lam)
        assert coords.leg == len(lam) - 1
        assert coords.inside_weight == sum(coords.inside)
        assert coords.tail_weight == sum(coords.inside[1:])


class TestEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(enum_partitions(n)) for n in range(11)] == expected

    def test_descending_lex(self):
        for n in range(9):
            out = enum_partitions(n)
            assert out == sorted(out, reverse=True)

    @given(st.integers(0, 14), st.integers(0, 6), st.integers(0, 6))
    def test_bounds_filter(self, n, parts, part):
        bounded = enum_partitions(n, max_parts=parts, max_part=part)
        brute = [
            lam for lam in enum_partitions(n)
            if len(lam) <= parts and all(p <= part for p in lam)
        ]
        assert bounded == brute

    @given(st.integers(0, 16), st.integers(0, 6), st.integers(0, 6))
    def test_box_count_matches_enumeration(self, r, a, b):
        assert count_box_partitions(r, a, b) == len(box_partitions(r, a, b))

    @given(st.integers(0, 14), st.integers(0, 6), st.integers(0, 6))
    def test_box_conjugation_symmetry(self, r, a, b):
        assert count_box_partitions(r, a, b) == count_box_partitions(r, b, a)

    def test_negative_weight_counts_zero(self):
        assert count_box_partitions(-1, 3, 3) == 0
        assert count_box_partitions(-5, 1, 1) == 0

    def test_census_scale_total(self):
        # partitions of 30 with at most 10 rows
        assert count_box_partitions(30, 30, 10) == 3590


class TestPieri:
    def test_frozen(self):
        assert pieri_add((2, 1), 2) == {(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
        assert pieri_add((), 3) == {(3,)}
        assert pieri_add((2, 2), 0) == {(2, 2)}

    @given(partitions(max_weight=9), st.integers(0, 5))
    def test_structure(self, lam, k):
        for res in pieri_add(lam, k):
            assert sum(res) == sum(lam) + k
            assert fits_inside(lam, res)
            grown = conjugate(res)
            base = conjugate(lam)
            # no column may gain two boxes
            assert all(
                grown[j] - (base[j] if j < len(base) else 0) <= 1
                for j in range(len(grown)))


class TestCentralizer:
    def test_frozen(self):
        assert centralizer_order(()) == 1
        assert centralizer_order((3,)) == 3
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((1, 1, 1)) == 6

    @given(st.integers(0, 10))
    def test_class_sizes_fill_the_group(self, n):
        assert sum(factorial(n) // centralizer_order(mu)
                   for mu in enum_partitions(n)) == factorial(n)


def removals(lam, length):
    """(shape, height) pairs, sorted, of the border strips (one ribbon each)
    taken off lam's canonical abacus."""
    return sorted((from_abacus(state), height)
                  for state, height in ribbon_strips(to_abacus(lam), -length, 1))


def additions(lam, length, beads):
    """(shape, height) pairs, sorted, of the border strips added on lam's
    abacus of `beads` beads."""
    return sorted((from_abacus(state), height)
                  for state, height in ribbon_strips(to_abacus(lam, beads), length, 1))


class TestAbacus:
    def test_round_trip(self):
        for n in range(13):
            for lam in enum_partitions(n):
                assert from_abacus(to_abacus(lam)) == lam
                assert to_abacus(lam) & 1 == 0
                for beads in range(len(lam), 14):
                    assert from_abacus(to_abacus(lam, beads)) == lam

    def test_frozen(self):
        # beta numbers of (3, 1): 6, 3, 1, 0 on four beads, 4, 1 on two
        assert to_abacus((3, 1), 4) == 0b1001011
        assert to_abacus((3, 1)) == 0b10010
        assert to_abacus(()) == 0 and from_abacus(0) == ()

    def test_too_few_beads_rejected(self):
        with pytest.raises(ValueError, match="more than 1 rows"):
            to_abacus((2, 1), 1)


class TestBorderStrips:
    @given(partitions(max_weight=10), st.integers(1, 6))
    def test_removal_addition_inverse(self, lam, length):
        for smaller, height in removals(lam, length):
            assert (lam, height) in additions(smaller, length, len(lam))

    @given(partitions(max_weight=9), st.integers(1, 6), st.integers(0, 6))
    def test_addition_row_cap_is_a_filter(self, lam, length, cap):
        if len(lam) > cap:
            with pytest.raises(ValueError):
                to_abacus(lam, cap)
            return
        capped = set(additions(lam, length, cap))
        full = {(shape, h) for shape, h in additions(lam, length, len(lam) + length)
                if len(shape) <= cap}
        assert capped == full

    @given(partitions(max_weight=10), st.integers(1, 6))
    def test_removed_weight(self, lam, length):
        for smaller, height in removals(lam, length):
            assert sum(smaller) == sum(lam) - length
            assert 0 <= height < length

    def test_removals_stay_canonical(self, monkeypatch):
        # the character recursion keys its memo by canonical states only, a
        # removal onto position 0 included: one per shape it reaches
        seen = set()
        values = characters._mn.__wrapped__

        def spy(state, cycles):
            seen.add(state)
            return values(state, cycles)

        monkeypatch.setattr(characters, "_mn", spy)
        for n in range(9):
            for lam in enum_partitions(n):
                for mu in enum_partitions(n):
                    mn_char(lam, mu)
        assert seen == {to_abacus(lam) for n in range(9) for lam in enum_partitions(n)}

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ribbon_strips(to_abacus((2, 1)), 0, 1)

    def test_bead_moves_match_beta_set_oracle(self):
        # as sorted lists against the beta-set forms: the oracles list rows
        # top down, while removals run from the lowest bead up and additions
        # from the top bead down
        for n in range(13):
            for lam in enum_partitions(n):
                for length in range(1, 13):
                    assert removals(lam, length) == sorted(oracle_strip_removals(lam, length))
                    for cap in (None, 0, 1, 2, 3, 5, 8, 12):
                        beads = len(lam) + length if cap is None else cap
                        expected = oracle_strip_additions(lam, length, cap)
                        if len(lam) > beads:
                            assert expected == ()
                        else:
                            assert additions(lam, length, beads) == sorted(expected)

    def test_single_box_additions_match_corners(self):
        out = {shape for shape, h in additions((2, 1), 1, 3)}
        assert out == {(3, 1), (2, 2), (2, 1, 1)}


def ribbon_content(state, delta, n):
    """{shape: signed count} of the horizontal strips of n ribbons of length
    |delta| added to (delta > 0) or removed from (delta < 0) an abacus."""
    out = {}
    for moved, height in ribbon_strips(state, delta, n):
        shape = from_abacus(moved)
        out[shape] = out.get(shape, 0) + (-1) ** height
    return {shape: c for shape, c in out.items() if c}


class TestRibbonStrips:
    def test_signed_sum_is_the_skew_pairing(self):
        # both directions against <s_lam, s_nu * p_k[h_n]>, for every lam of
        # weight <= 10: removing sums over nu, adding (on enough beads for
        # any lam) over lam
        for weight in range(11):
            shapes = enum_partitions(weight)
            basis = {lam: schur_series(lam) for lam in shapes}
            for k in range(1, weight + 1):
                for n in range(1, weight // k + 1):
                    power = plethysm_power(k, h_series(n))
                    products = {nu: multiply(schur_series(nu), power)
                                for nu in enum_partitions(weight - k * n)}
                    pairing = {(lam, nu): c for lam in shapes for nu, g in products.items()
                               if (c := inner(basis[lam], g))}
                    for lam in shapes:
                        expected = {nu: c for (mu, nu), c in pairing.items() if mu == lam}
                        assert ribbon_content(to_abacus(lam), -k, n) == expected, (lam, k, n)
                    for nu in products:
                        expected = {lam: c for (lam, mu), c in pairing.items() if mu == nu}
                        assert ribbon_content(to_abacus(nu, weight), k, n) == expected, \
                            (nu, k, n)

    def test_floor_keeps_exactly_the_strips_that_empty_the_bottom_rows(self):
        for weight in range(11):
            for lam in enum_partitions(weight):
                for beads in range(len(lam), len(lam) + 4):
                    state = to_abacus(lam, beads)
                    for k in range(1, weight + 4):
                        for n in range(weight // k + 2):
                            bottom = (1 << k) - 1
                            kept = {(nu, h % 2) for nu, h in ribbon_strips(state, -k, n)
                                    if nu & bottom == bottom}
                            forced = ribbon_strips(state, -k, n, floor=True)
                            assert {(nu, h % 2) for nu, h in forced} == kept, \
                                (lam, beads, k, n)
                            assert len(forced) == len(kept)

    def test_zero_strips_is_the_identity(self):
        for delta in (-2, 2):
            assert ribbon_strips(to_abacus((3, 1)), delta, 0) == [(to_abacus((3, 1)), 0)]

    def test_rejects_bad_length(self):
        for delta, count, floor in ((0, 1, False), (-2, -1, False), (2, 1, True)):
            with pytest.raises(ValueError):
                ribbon_strips(to_abacus((2, 1)), delta, count, floor)
