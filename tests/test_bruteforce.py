import pytest

from foulkes.bruteforce import (
    apply_permutation,
    block_partition_count,
    brute_foulkes_char,
    brute_restriction_orbits,
    canonical_form,
    cycle_type_permutation,
    enum_omega,
    fixed_count,
    format_set_partition,
    linked_partition,
    verify_trivial_quotient,
)
from foulkes.decomposition import foulkes_series
from foulkes.partitions import box_partitions, enum_partitions


class TestEnumOmega:
    def test_frozen_order(self):
        assert enum_omega((2, 2)) == [
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ]

    def test_mixed_sizes(self):
        got = enum_omega((2, 1))
        assert got == [((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2, 3))]

    @pytest.mark.parametrize("blocks", [(2, 2, 1), (3, 3), (2, 2, 2), (1, 1, 1, 1), (4, 2)])
    def test_count_matches_formula(self, blocks):
        assert len(enum_omega(blocks)) == block_partition_count(blocks)

    def test_every_element_canonical_and_distinct(self):
        got = enum_omega((2, 2, 1))
        assert len(set(got)) == len(got)
        for sp in got:
            assert canonical_form(sp) == sp

    def test_cap(self):
        with pytest.raises(ValueError):
            enum_omega((7, 7))
        assert len(enum_omega((7, 7), cap=14)) == block_partition_count((7, 7))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            enum_omega((2, 0))
        with pytest.raises(ValueError):
            block_partition_count((2, -1))


class TestPermutations:
    def test_cycle_type_permutation_frozen(self):
        assert cycle_type_permutation((3, 2)) == (2, 3, 1, 5, 4)
        assert cycle_type_permutation((1, 1, 1)) == (1, 2, 3)
        assert cycle_type_permutation(()) == ()

    def test_apply_recanonifies(self):
        sp = ((1, 2), (3, 4))
        assert apply_permutation((3, 4, 1, 2), sp) == ((1, 2), (3, 4))
        assert apply_permutation((2, 3, 1, 4), sp) == ((1, 4), (2, 3))

    def test_fixed_count_frozen(self):
        omega = enum_omega((2, 2))
        by_class = {
            mu: fixed_count(omega, cycle_type_permutation(mu))
            for mu in enum_partitions(4)
        }
        assert by_class == {
            (1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): 3, (3, 1): 0, (4,): 1}


class TestBruteCharacter:
    def test_matches_exact_series(self):
        assert brute_foulkes_char((2, 2)) == foulkes_series(2, 2)
        assert brute_foulkes_char((2, 2, 2)) == foulkes_series(2, 3)

    def test_degree_recorded(self):
        assert brute_foulkes_char((3, 1)).degree == 4


class TestRestriction:
    def test_linked_partition(self):
        assert linked_partition(((1, 3), (2, 5), (4, 6)), 2) == (1, 1)
        assert linked_partition(((1, 2), (3, 4)), 2) == (2,)
        assert linked_partition(((1, 2), (3, 4)), 0) == ()

    def test_fibers_frozen(self):
        assert brute_restriction_orbits(2, 3, 2) == {(2,): 3, (1, 1): 12}

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (2, 4)])
    def test_fiber_keys_are_box_partitions(self, a, b):
        for r in range(a * b):
            fibers = brute_restriction_orbits(a, b, r)
            assert set(fibers) == set(box_partitions(r, a, b))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            brute_restriction_orbits(2, 3, 7)


class TestTrivialQuotient:
    def test_frozen(self):
        assert verify_trivial_quotient(2, 3, 1, (1,)) == (15, 15)
        assert verify_trivial_quotient(2, 3, 2, (1, 1)) == (6, 6)
        assert verify_trivial_quotient(2, 3, 2, (2,)) == (3, 3)

    def test_more_cases(self):
        assert verify_trivial_quotient(3, 3, 3, (2, 1)) == (60, 60)
        assert verify_trivial_quotient(2, 4, 3, (2, 1)) == (15, 15)
        # a full block of marks disappears from the image entirely
        assert verify_trivial_quotient(2, 4, 2, (2,))[0] == block_partition_count((2, 2, 2))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_trivial_quotient(2, 3, 2, (1,))
        with pytest.raises(ValueError):
            verify_trivial_quotient(2, 3, 3, (3,))


class TestFormatting:
    def test_compact_digits(self):
        assert format_set_partition(((1, 2), (3, 4))) == "12|34"

    def test_commas_past_nine(self):
        assert format_set_partition(((1, 2), (3, 10))) == "1,2|3,10"
