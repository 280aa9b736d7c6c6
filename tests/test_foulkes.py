import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from foulkes import cli, decomposition, symfunc
from foulkes.bruteforce import brute_foulkes_char
from foulkes.decomposition import (
    FoulkesShape,
    GeneralizedShape,
    decompose,
    exterior_pairing,
    foulkes_series,
    gen_multiplicity,
    multiplicity,
    orbit_size,
)
from foulkes.partitions import box_partitions, enum_partitions
from foulkes.symfunc import ComputeBudgetExceeded, inner, schur_series
from oracles import oracle_weyl_multiplicities
from strats import small_shapes


class TestShapes:
    def test_foulkes_shape_properties(self):
        sh = FoulkesShape(2, 3)
        assert sh.degree == 6
        assert sh.blocks_partition == (2, 2, 2)
        assert sh.omega_size == 15
        assert FoulkesShape(3, 2).omega_size == 10

    def test_foulkes_shape_validation(self):
        with pytest.raises(ValueError):
            FoulkesShape(0, 3)
        with pytest.raises(ValueError):
            FoulkesShape(2, -1)

    def test_generalized_from_blocks(self):
        sh = GeneralizedShape(((2, 2), (1, 1)))
        assert sh.pairs == ((2, 2), (1, 1))
        assert sh.degree == 5
        assert sh.blocks_partition == (2, 2, 1)
        assert sh.distinct_sizes == 2
        assert sh.omega_size == 15

    def test_generalized_validation(self):
        with pytest.raises(ValueError):
            GeneralizedShape(((2, 1), (2, 1)))
        with pytest.raises(ValueError):
            GeneralizedShape(((1, 2), (2, 1)))
        with pytest.raises(ValueError):
            GeneralizedShape(((2, 0),))

    def test_generalized_collapses_to_plain(self):
        plain, generalized = FoulkesShape(2, 3), GeneralizedShape(((2, 3),))
        for lam in enum_partitions(6):
            for fast in (True, False):
                assert gen_multiplicity(generalized, lam, fast) == multiplicity(plain, lam, fast)


class TestSeries:
    @given(small_shapes(max_degree=8))
    def test_series_is_the_permutation_character(self, shape):
        a, b = shape
        assert foulkes_series(a, b) == brute_foulkes_char((a,) * b)

    def test_generalized_series_is_the_permutation_character(self):
        # gen_multiplicity against the multiplicities read off the brute-force
        # fixed-point counts, on every shape, pruned and unpruned
        for pairs in [((2, 1), (1, 1)), ((2, 2), (1, 1)), ((3, 1), (1, 2)), ((3, 1), (2, 1))]:
            sh = GeneralizedShape(pairs)
            blocks = sh.blocks_partition
            char = brute_foulkes_char(blocks)
            for lam in enum_partitions(sh.degree):
                expected = inner(char, schur_series(lam))
                for fast in (True, False):
                    assert gen_multiplicity(sh, lam, fast) == expected, (blocks, lam, fast)

    @pytest.mark.parametrize("index, message", [
        ((1,) * 9, r"3x3 series: coefficient on 1\^9 is 281, not \|Omega\| = 280"),
        ((9,), r"3x3 series: coefficients sum to 362881, not 9!"),
    ], ids=["degree", "trivial-once"])
    def test_series_identities_are_checked(self, monkeypatch, index, message):
        plethysm_h = symfunc.plethysm_h

        def one_off(b, f):
            series = plethysm_h(b, f)
            coeffs = dict(series.coeffs)
            coeffs[index] = coeffs.get(index, 0) + 1
            return symfunc.PSeries(series.degree, coeffs)

        monkeypatch.setattr(symfunc, "plethysm_h", one_off)
        foulkes_series.cache_clear()
        with pytest.raises(ArithmeticError, match=message):
            exterior_pairing(FoulkesShape(3, 3), 1)


# boards of degree 12, whose 77 shapes include many with more than b rows
WHOLE_BOARDS = [(2, 6), (3, 4), (4, 3)]


def query_misses(a, b):
    """Shapes of 12 whose unpruned point query on the a x b board disagrees
    with the unpruned table, or fails an exactness check. The queries share
    one memo, so it is reused across the whole board, more rows than b
    included."""
    shape = FoulkesShape(a, b)
    table = decompose(shape, use_fastpath=False)
    assert len(table.entries) == 77
    misses = []
    for lam, mult in table.entries:
        try:
            if multiplicity(shape, lam, use_fastpath=False) != mult:
                misses.append(lam)
        except ArithmeticError:
            misses.append(lam)
    return misses


def flip_heights(out):
    """Flip the sign of every strip that spans more than one row (flipping
    every sign twists both sides of an inequality alike)."""
    return [(moved, height + 1 if height else 0) for moved, height in out]


def flip_one_direction(monkeypatch, adding):
    """Flip the strip signs of symfunc.ribbon_strips in one direction only:
    tables add strips and queries remove them, so flipping both would twist
    the two routes alike. The query memos built here are dropped."""
    strips = symfunc.ribbon_strips

    def flipped(state, delta, *rest):
        out = strips(state, delta, *rest)
        return flip_heights(out) if (delta > 0) == adding else out

    monkeypatch.setattr(symfunc, "ribbon_strips", flipped)
    monkeypatch.setattr(decomposition, "_PULLS", {})


@pytest.fixture
def flipped_strip_signs(monkeypatch):
    # on the strips added to build tables
    flip_one_direction(monkeypatch, adding=True)


@pytest.fixture
def flipped_removal_signs(monkeypatch):
    # on the strips removed to answer queries
    flip_one_direction(monkeypatch, adding=False)


class TestMultiplicity:
    def test_frozen_small(self):
        sh = FoulkesShape(2, 3)
        expected = {(6,): 1, (4, 2): 1, (2, 2, 2): 1}
        for lam in enum_partitions(6):
            assert multiplicity(sh, lam) == expected.get(lam, 0)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            multiplicity(FoulkesShape(2, 3), (5, 2))

    @given(small_shapes(max_degree=10), st.data())
    def test_fastpath_changes_nothing(self, shape, data):
        a, b = shape
        lam = data.draw(st.sampled_from(enum_partitions(a * b)))
        assert multiplicity(FoulkesShape(a, b), lam, use_fastpath=True) == \
            multiplicity(FoulkesShape(a, b), lam, use_fastpath=False)

    @pytest.mark.parametrize("a,b", WHOLE_BOARDS)
    def test_whole_board_matches_table(self, a, b):
        assert query_misses(a, b) == []

    def test_removal_sign_flip_fails_it(self, flipped_removal_signs):
        assert any(query_misses(a, b) for a, b in WHOLE_BOARDS)

    @pytest.mark.slow
    def test_3x10_table_matches_point_queries(self):
        shape = FoulkesShape(3, 10)
        rows = [(lam, mult) for lam, mult in decompose(shape, jobs=2).entries if len(lam) <= 10]
        assert len(rows) == 3590
        mismatches = [lam for lam, mult in rows
                      if multiplicity(shape, lam, use_fastpath=False) != mult]
        assert mismatches == []

    def test_gen_multiplicity_kostka_case(self):
        # one block of 2 and one of 1: plain Young character of (2,1)
        sh = GeneralizedShape(((2, 1), (1, 1)))
        assert gen_multiplicity(sh, (3,)) == 1
        assert gen_multiplicity(sh, (2, 1)) == 1
        assert gen_multiplicity(sh, (1, 1, 1)) == 0

    def test_gen_fastpath_changes_nothing(self):
        sh = GeneralizedShape(((2, 2), (1, 1)))
        for lam in enum_partitions(5):
            assert gen_multiplicity(sh, lam, use_fastpath=True) == \
                gen_multiplicity(sh, lam, use_fastpath=False)

    @pytest.mark.parametrize("fast", [True, False])
    def test_trivial_character_once_is_checked(self, monkeypatch, capsys, fast):
        # the one-row shape reads 2 instead of 1 on every board
        pull = symfunc.plethysm_h_pull

        def twice_trivial(blocks, prune):
            coefficient = pull(blocks, prune)
            return lambda lam: coefficient(lam) + (len(lam) == 1)

        monkeypatch.setattr(symfunc, "plethysm_h_pull", twice_trivial)
        monkeypatch.setattr(decomposition, "_PULLS", {})
        with pytest.raises(ArithmeticError,
                           match=r"^3x3 query: the trivial character appears 2 times, not once$"):
            multiplicity(FoulkesShape(3, 3), (5, 2, 2), fast)
        with pytest.raises(ArithmeticError,
                           match=r"^blocks 3,2 query: the trivial character appears 2 times"):
            gen_multiplicity(GeneralizedShape(((3, 1), (2, 1))), (3, 2), fast)
        argv = ["multiplicity", "3", "3", "5,2,2"] + ([] if fast else ["--no-fastpath"])
        assert cli.main(argv) == cli.EXIT_DISCREPANCY
        out, err = capsys.readouterr()
        assert out == "" and err == ("claim violation: 3x3 query: "
                                     "the trivial character appears 2 times, not once\n")


class TestExteriorPairing:
    def test_frozen(self):
        sh = FoulkesShape(2, 3)
        assert [exterior_pairing(sh, k) for k in range(5)] == [1, 1, 0, 0, 0]

    def test_range_checked(self):
        with pytest.raises(ValueError):
            exterior_pairing(FoulkesShape(2, 3), 7)
        with pytest.raises(ValueError):
            exterior_pairing(FoulkesShape(2, 3), -1)


class TestOrbitSize:
    def test_frozen(self):
        assert orbit_size(2, 3, ()) == 15
        assert orbit_size(2, 3, (1,)) == 15
        assert orbit_size(2, 3, (2,)) == 3
        assert orbit_size(2, 3, (1, 1)) == 12

    def test_box_violations_rejected(self):
        with pytest.raises(ValueError):
            orbit_size(2, 3, (3,))
        with pytest.raises(ValueError):
            orbit_size(2, 3, (1, 1, 1, 1))

    @given(small_shapes(max_degree=12), st.integers(0, 12))
    def test_orbits_tile_the_whole_set(self, shape, r):
        a, b = shape
        if r > a * b:
            return
        total = sum(orbit_size(a, b, lam) for lam in box_partitions(r, a, b))
        assert total == FoulkesShape(a, b).omega_size


class TestDecompose:
    def test_full_table_shape(self):
        table = decompose(FoulkesShape(2, 3))
        assert table.a == 2 and table.b == 3
        rows = [lam for lam, _ in table.entries]
        assert rows == enum_partitions(6)
        assert table.nonzero_entries == (((6,), 1), ((4, 2), 1), ((2, 2, 2), 1))

    @given(small_shapes(max_degree=10))
    def test_dimensions_add_up(self, shape):
        a, b = shape
        table = decompose(FoulkesShape(a, b))
        assert table.dimension_sum == FoulkesShape(a, b).omega_size

    def test_fastpath_changes_nothing(self):
        fast = decompose(FoulkesShape(3, 3))
        slow = decompose(FoulkesShape(3, 3), use_fastpath=False)
        assert fast == slow

    def test_json_layout(self):
        payload = decompose(FoulkesShape(2, 2)).to_json_dict()
        assert payload == {
            "a": 2,
            "b": 2,
            "entries": [
                {"lambda": "4", "mult": 1},
                {"lambda": "3,1", "mult": 0},
                {"lambda": "2,2", "mult": 1},
                {"lambda": "2,1,1", "mult": 0},
                {"lambda": "1,1,1,1", "mult": 0},
            ],
        }

    def test_csv_layout(self):
        text = decompose(FoulkesShape(2, 2)).to_csv_text()
        assert text == (
            "lambda,mult,dimension\n"
            "4,1,1\n"
            '"3,1",0,3\n'
            '"2,2",1,2\n'
            '"2,1,1",0,3\n'
            '"1,1,1,1",0,1\n'
        )

    def test_serializations_are_stable(self):
        first = decompose(FoulkesShape(3, 3))
        second = decompose(FoulkesShape(3, 3))
        assert first.to_json_dict() == second.to_json_dict()
        assert first.to_csv_text() == second.to_csv_text()

    def test_parallel_agrees(self):
        assert decompose(FoulkesShape(2, 6), jobs=3) == decompose(FoulkesShape(2, 6))

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            decompose(FoulkesShape(2, 3), jobs=0)

    def test_deadline_bounds_the_whole_table(self):
        # the 3x13 table takes over a second, and nothing is memoized across tables
        start = time.monotonic()
        with pytest.raises(ComputeBudgetExceeded, match=r"^3x13 table passed its time limit "
                                                        r"at expansion stage \d+ of 13$"):
            decompose(FoulkesShape(3, 13), deadline=0.2)
        assert time.monotonic() - start < 0.6

    def test_deadline_bounds_the_listing(self, monkeypatch):
        listing = decomposition.enum_partitions

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return listing(*args, **kwargs)

        monkeypatch.setattr(decomposition, "enum_partitions", slow)
        with pytest.raises(ComputeBudgetExceeded, match=r"^2x3 table passed its time limit "
                                                        r"listing the partitions of 6$"):
            decompose(FoulkesShape(2, 3), deadline=0.1)
        assert decompose(FoulkesShape(2, 3), deadline=60.0) == decompose(FoulkesShape(2, 3))

    def test_table_must_account_for_every_set_partition(self, monkeypatch, capsys):
        expand = symfunc.plethysm_h_expansion

        def off_by_one(*args, **kwargs):
            out = expand(*args, **kwargs)
            out[(6,)] += 1
            return out

        monkeypatch.setattr(symfunc, "plethysm_h_expansion", off_by_one)
        with pytest.raises(ArithmeticError, match=r"2x3 table: .* is 16, not \|Omega\| = 15"):
            decompose(FoulkesShape(2, 3))
        assert cli.main(["decompose", "2", "3"]) == cli.EXIT_DISCREPANCY
        out, err = capsys.readouterr()
        assert out == "" and "2x3 table" in err


class TestClosedForms:
    """Whole tables up to degree 40 against plethysms known in closed form."""

    @pytest.mark.parametrize("b", range(16))
    def test_thrall_h_b_of_h_2(self, b):
        # h_b[h_2] is the sum of s_(2 nu) over all nu of b, each once
        expected = {tuple(2 * part for part in nu): 1 for nu in enum_partitions(b)}
        assert dict(decompose(FoulkesShape(2, b)).nonzero_entries) == expected

    @pytest.mark.parametrize("a", range(1, 16))
    def test_h_2_of_h_a(self, a):
        # h_2[h_a] is the sum of s_(2a - 2k, 2k) over k = 0 .. a/2, each once
        expected = {tuple(p for p in (2 * a - 2 * k, 2 * k) if p): 1
                    for k in range(a // 2 + 1)}
        assert dict(decompose(FoulkesShape(a, 2)).nonzero_entries) == expected

    def test_h_1_of_h_a(self):
        # one block: h_1[h_a] = s_(a), unpruned, up to degree 40
        for a in range(1, 41):
            assert symfunc.plethysm_h_expansion(1, a) == {(a,): 1}, a

    def test_h_b_of_h_1(self):
        # singleton blocks: h_b[h_1] = h_b = s_(b), unpruned, up to degree 40
        for b in range(1, 41):
            assert symfunc.plethysm_h_expansion(b, 1) == {(b,): 1}, b


FOULKES_PAIRS = [(m, n) for m in range(2, 5) for n in range(m + 1, 30 // m + 1)]


def foulkes_inequality_misses(m, n):
    """Shapes whose multiplicity in h_m[h_n] exceeds the one in h_n[h_m].

    Every shape of h_m[h_n] has at most m rows, so both tables are pruned to m.
    """
    lhs = symfunc.plethysm_h_expansion(m, n, max_rows=m)
    rhs = symfunc.plethysm_h_expansion(n, m, max_rows=m)
    return [lam for lam, c in lhs.items() if c > rhs.get(lam, 0)]


def first_row_decreases(b, max_degree=30):
    """Pairs (a, nu) where the multiplicity of (ab - |nu|, nu) in h_b[h_a]
    is larger than that of ((a+1)b - |nu|, nu) in h_b[h_(a+1)]."""
    out = []
    previous = {}
    for a in range(1, max_degree // b + 1):
        table = symfunc.plethysm_h_expansion(b, a, max_rows=b)
        current = {lam[1:]: c for lam, c in table.items()}
        out.extend((a - 1, nu) for nu, c in previous.items() if c > current.get(nu, 0))
        previous = current
    return out


class TestProvenOracles:
    """Whole tables up to degree 30 against two proven inequalities."""

    @pytest.mark.parametrize("m, n", FOULKES_PAIRS)
    def test_foulkes_inequality(self, m, n):
        # h_m[h_n] <= h_n[h_m] coefficientwise for m < n: Thrall (m = 2),
        # Dent-Siemons (m = 3), McKay (m = 4)
        assert foulkes_inequality_misses(m, n) == []

    def test_foulkes_inequality_5_6_is_recorded(self, record_property):
        # m = 5 is not proven in general (Cheung-Ikenmeyer-Mkrtchian), so the
        # (5, 6) count goes to the test report instead of an assertion
        record_property("foulkes_inequality_5_6_misses", len(foulkes_inequality_misses(5, 6)))

    @pytest.mark.parametrize("b", range(2, 7))
    def test_first_row_stability(self, b):
        # Brion: the multiplicity of (ab - |nu|, nu) weakly increases with a
        assert first_row_decreases(b) == []

    def test_strip_sign_flip_fails_each_oracle(self, flipped_strip_signs):
        assert any(foulkes_inequality_misses(m, n) for m, n in FOULKES_PAIRS)
        assert any(first_row_decreases(b) for b in range(2, 7))


# every board with ab <= 16, with the number of rows the Weyl route reads
WEYL_BOARDS = [(a, b, min(b, 5)) for a in range(1, 17) for b in range(1, 16 // a + 1)]


def weyl_misses(a, b, rows):
    """Shapes with at most `rows` rows whose multiplicity in h_b[h_a] differs
    from the Weyl-numerator count. Pruning the table to `rows` rows is exact."""
    table = symfunc.plethysm_h_expansion(b, a, max_rows=rows)
    weyl = oracle_weyl_multiplicities(a, b, rows)
    return [lam for lam in weyl.keys() | table.keys()
            if table.get(lam, 0) != weyl.get(lam, 0)]


class TestWeylOracle:
    """Tables against weight multiplicities of Sym^b(Sym^a C^rows) and Weyl's
    character formula, a route that shares no code with the engine. Reading
    all of (a^b) would take b rows and b! terms, which is out of reach past
    about b = 6, so the route reads at most five rows."""

    def test_small_boards(self):
        assert [board for board in WEYL_BOARDS if weyl_misses(*board)] == []

    def test_3x10_four_rows(self):
        assert weyl_misses(3, 10, 4) == []

    @pytest.mark.slow
    def test_3x10_five_rows(self):
        assert weyl_misses(3, 10, 5) == []

    def test_strip_sign_flip_fails_it(self, flipped_strip_signs):
        assert any(weyl_misses(*board) for board in WEYL_BOARDS)


class TestExactness:
    """Every multiplicity and pairing passes one integrality and sign check."""

    BAD = [(Fraction(1, 2), "came out 1/2, not an integer"),
           (Fraction(-1), "came out negative: -1")]

    @pytest.mark.parametrize("value, message", BAD)
    def test_decompose_names_the_shape(self, monkeypatch, value, message):
        monkeypatch.setattr(symfunc, "plethysm_h_expansion", lambda *a, **k: {(4, 2): value})
        with pytest.raises(ArithmeticError,
                           match=rf"^2x3 table: multiplicity of \(4, 2\) {message}"):
            decompose(FoulkesShape(2, 3))

    @pytest.mark.parametrize("value, message", BAD)
    def test_multiplicity_names_the_shape(self, monkeypatch, value, message):
        pull = symfunc.plethysm_h_pull

        def bad_at_4_2(blocks, prune):
            coefficient = pull(blocks, prune)
            return lambda lam: value if lam == (4, 2) else coefficient(lam)

        monkeypatch.setattr(symfunc, "plethysm_h_pull", bad_at_4_2)
        monkeypatch.setattr(decomposition, "_PULLS", {})
        with pytest.raises(ArithmeticError,
                           match=rf"^2x3 query: multiplicity of \(4, 2\) {message}"):
            multiplicity(FoulkesShape(2, 3), (4, 2))
        with pytest.raises(ArithmeticError,
                           match=rf"^blocks 2,2,2 query: multiplicity of \(4, 2\) {message}"):
            gen_multiplicity(GeneralizedShape(((2, 3),)), (4, 2))

    @pytest.mark.parametrize("value, message", BAD)
    def test_pairing_checked(self, monkeypatch, value, message):
        monkeypatch.setattr(symfunc, "inner", lambda *a: value)
        with pytest.raises(ArithmeticError, match=f"^2x3 pairing: e_1 h_5 {message}"):
            exterior_pairing(FoulkesShape(2, 3), 1)
