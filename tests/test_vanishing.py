import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import foulkes
from foulkes import decomposition, symfunc, vanishing
from foulkes.decomposition import (
    FoulkesShape,
    GeneralizedShape,
    decompose,
    gen_multiplicity,
    multiplicity,
)
from foulkes.partitions import enum_partitions
from foulkes.symfunc import ComputeBudgetExceeded
from foulkes.vanishing import (
    Discrepancy,
    Rule,
    Verdict,
    census,
    predict_gen_hooks,
    predictions_for,
    verify_all,
)
from foulkes.vanishing import _hold, _rules
from oracles import oracle_hold, oracle_predictions
from strats import small_shapes


def verdict(lam, rule, b=0):
    """The verdict of one always-read rule on lam, with no board: b only
    matters to many-parts."""
    return next(v for r, v, _ in _rules(lam, sum(lam), b) if r is rule)


def column_shape(shape, k):
    """(degree-2k, 2^k): the column (1^k) inside the hook."""
    return (shape.degree - 2 * k,) + (2,) * k


def column_inside(shape, k):
    """The column-inside prediction for column_shape(shape, k)."""
    preds = predictions_for(shape, column_shape(shape, k))
    return next(p for p in preds if p.rule is Rule.COLUMN_INSIDE)


class TestPredicates:
    def test_many_parts(self):
        assert verdict((1, 1, 1, 1), Rule.MANY_PARTS, 3) is Verdict.ZERO
        assert verdict((1, 1, 1, 1), Rule.MANY_PARTS, 4) is Verdict.NO_CLAIM

    def test_hook(self):
        assert verdict((4, 1, 1), Rule.HOOK) is Verdict.ZERO
        assert verdict((6,), Rule.HOOK) is Verdict.NO_CLAIM
        assert verdict((3, 2), Rule.HOOK) is Verdict.NO_CLAIM

    def test_inside_bound(self):
        # leg 4, inside (3): 2*3 < 4*5
        assert verdict((23, 4, 1, 1, 1), Rule.INSIDE_BOUND) is Verdict.ZERO
        # leg 3, inside (2): 2*2 < 3*4
        assert verdict((7, 3, 1, 1), Rule.INSIDE_BOUND) is Verdict.ZERO
        # leg 1, inside (1): 2*1 < 1*2 fails
        assert verdict((4, 2), Rule.INSIDE_BOUND) is Verdict.NO_CLAIM
        # column inside the hook always escapes: leg k, inside (1^k)
        assert verdict((4, 2, 2), Rule.INSIDE_BOUND) is Verdict.NO_CLAIM
        # hooks are the empty-inside case
        assert verdict((5, 1, 1), Rule.INSIDE_BOUND) is Verdict.ZERO

    def test_small_inside(self):
        assert verdict((7, 3, 1, 1), Rule.SMALL_INSIDE) is Verdict.ZERO
        assert verdict((4, 2, 2), Rule.SMALL_INSIDE) is Verdict.NO_CLAIM
        assert verdict((3, 3), Rule.SMALL_INSIDE) is Verdict.NO_CLAIM
        assert verdict((6,), Rule.SMALL_INSIDE) is Verdict.NO_CLAIM

    @given(st.sampled_from(enum_partitions(9) + enum_partitions(12)))
    def test_small_inside_never_claims_without_inside_bound(self, lam):
        # containment: the lighter criterion is a special case of the bound
        if verdict(lam, Rule.SMALL_INSIDE) is Verdict.ZERO:
            assert verdict(lam, Rule.INSIDE_BOUND) is Verdict.ZERO

    @given(st.sampled_from(enum_partitions(10) + enum_partitions(13)))
    def test_hooks_never_claim_without_inside_bound(self, lam):
        if verdict(lam, Rule.HOOK) is Verdict.ZERO:
            assert verdict(lam, Rule.INSIDE_BOUND) is Verdict.ZERO


class TestColumnInside:
    def test_claims(self):
        assert column_inside(FoulkesShape(3, 4), 2) == (Rule.COLUMN_INSIDE, Verdict.ONE, 1)
        assert column_shape(FoulkesShape(3, 4), 2) == (8, 2, 2)
        assert column_inside(FoulkesShape(3, 4), 3).verdict is Verdict.ONE
        # k reaching b is out of scope
        assert column_inside(FoulkesShape(3, 4), 4).verdict is Verdict.NO_CLAIM

    def test_singleton_blocks_not_claimed(self):
        # the trivial character misses these shapes, so no claim when a == 1
        sh = FoulkesShape(1, 6)
        pred = column_inside(sh, 2)
        assert pred.verdict is Verdict.NO_CLAIM
        assert multiplicity(sh, (2, 2, 2)) == 0

    @given(st.sampled_from([(a, b) for a in range(2, 5) for b in range(2, 5)]),
           st.integers(1, 4))
    def test_claimed_values_are_exact(self, shape, k):
        a, b = shape
        if k >= b or a * b - 2 * k < 2:
            return
        sh = FoulkesShape(a, b)
        pred = column_inside(sh, k)
        assert pred.verdict is Verdict.ONE
        assert multiplicity(sh, column_shape(sh, k)) == pred.expected == 1


class TestGenHooks:
    def test_two_sizes(self):
        sh = GeneralizedShape(((2, 2), (1, 1)))
        assert predict_gen_hooks(sh, (3, 1, 1)).verdict is Verdict.ZERO
        assert predict_gen_hooks(sh, (2, 1, 1, 1)).verdict is Verdict.ZERO
        assert predict_gen_hooks(sh, (1, 1, 1, 1, 1)).verdict is Verdict.ZERO
        assert predict_gen_hooks(sh, (4, 1)).verdict is Verdict.NO_CLAIM
        assert predict_gen_hooks(sh, (3, 2)).verdict is Verdict.NO_CLAIM
        assert predict_gen_hooks(sh, (2, 2, 1)).verdict is Verdict.NO_CLAIM
        assert predict_gen_hooks(sh, (5,)).verdict is Verdict.NO_CLAIM
        # the short-legged hook really does appear, hence the cutoff
        assert gen_multiplicity(sh, (4, 1)) == 1
        assert gen_multiplicity(sh, (3, 1, 1)) == 0

    def test_weight_checked(self):
        with pytest.raises(ValueError):
            predict_gen_hooks(GeneralizedShape(((2, 1), (1, 1))), (4, 1))
        # the empty shape's one partition is no hook
        with pytest.raises(ValueError, match="no hook shape"):
            predict_gen_hooks(GeneralizedShape(()), ())


class TestPredictionsFor:
    def test_rule_assembly(self):
        sh = FoulkesShape(2, 3)
        rules = {p.rule for p in predictions_for(sh, (2, 2, 2))}
        assert rules == {Rule.MANY_PARTS, Rule.HOOK, Rule.INSIDE_BOUND,
                         Rule.SMALL_INSIDE, Rule.COLUMN_INSIDE}
        rules = {p.rule for p in predictions_for(sh, (4, 2))}
        assert Rule.TWO_ROW in rules
        assert Rule.COLUMN_INSIDE in rules

    def test_column_inside_claim_rides_along(self):
        preds = {p.rule: p for p in predictions_for(FoulkesShape(2, 3), (2, 2, 2))}
        assert preds[Rule.COLUMN_INSIDE].verdict is Verdict.ONE

    def test_weight_checked(self):
        with pytest.raises(ValueError):
            predictions_for(FoulkesShape(2, 3), (4, 1))

    @given(small_shapes(max_degree=10), st.data())
    def test_every_claim_is_sound(self, shape, data):
        a, b = shape
        lam = data.draw(st.sampled_from(enum_partitions(a * b)))
        sh = FoulkesShape(a, b)
        actual = multiplicity(sh, lam)
        for pred in predictions_for(sh, lam):
            if pred.verdict is not Verdict.NO_CLAIM:
                assert pred.expected == actual, (lam, pred.rule)


# every board with a*b <= 18, a = 1 and b = 1 included
UP_TO_18 = [(a, b) for a in range(1, 19) for b in range(1, 18 // a + 1)]


class TestRuleOracle:
    """The integer rule pass against the hook-coordinate form of every rule
    (oracles.oracle_predictions), on every board with a*b <= 18."""

    @pytest.fixture(scope="class")
    def tables(self):
        return {(a, b): decompose(FoulkesShape(a, b), use_fastpath=False).entries
                for a, b in UP_TO_18}

    def test_hold_matches_oracle(self, tables):
        # shifting every multiplicity by one makes every committed claim miss
        # somewhere, so each rule's miss path runs
        missed = set()
        for (a, b), entries in tables.items():
            for shift in (0, 1, -1):
                rows = [(lam, m + shift) for lam, m in entries]
                held = _hold(FoulkesShape(a, b), rows)
                assert held == oracle_hold(a, b, rows), (a, b, shift)
                assert shift or held[0] == []
                missed |= {miss.rule for miss in held[0]}
        assert missed == set(Rule) - {Rule.GEN_HOOK}

    def test_predictions_match_oracle(self, tables):
        # and expected is None exactly on NO_CLAIM, 0 on ZERO and 1 on ONE
        committed = {Verdict.ZERO: 0, Verdict.ONE: 1}
        for (a, b), entries in tables.items():
            shape = FoulkesShape(a, b)
            for lam, _ in entries:
                expected = oracle_predictions(a, b, lam)
                assert predictions_for(shape, lam) == expected, (a, b, lam)
                for rule, verdict, value in _rules(lam, a * b, b, a):
                    assert (value is None) == (verdict is Verdict.NO_CLAIM), (a, b, lam, rule)
                    assert committed.get(verdict, value) == value, (a, b, lam, rule)


# every board of degree 31 to 36, a = 1 and b = 1 included
DEGREE_31_TO_36 = [(a, b) for a in range(1, 37) for b in range(1, 37) if 30 < a * b <= 36]

CENSUS_SCRIPT = """
import json, sys
from foulkes.vanishing import census
for a, b in json.loads(sys.argv[1]):
    print(json.dumps(census(a, b).to_json_dict()), flush=True)
"""


class TestCensus:
    @pytest.mark.parametrize("a,b,total,zero,predicted", [
        (2, 3, 7, 4, 3),
        (1, 4, 5, 4, 3),
        (3, 3, 12, 7, 4),
        (2, 7, 105, 90, 54),
    ])
    def test_frozen_counts(self, a, b, total, zero, predicted):
        report = census(a, b)
        assert (report.total, report.zero, report.predicted) == (total, zero, predicted)

    def test_report_json(self):
        report = census(2, 3)
        payload = report.to_json_dict()
        assert payload["a"] == 2 and payload["b"] == 3
        assert payload["total"] == 7 and payload["zero"] == 4 and payload["predicted"] == 3
        assert isinstance(payload["elapsed_ms"], int)

    def test_miss_case_is_counted_but_not_predicted(self):
        # (3,3) vanishes in the 2x3 character yet no rule sees it coming
        sh = FoulkesShape(2, 3)
        assert multiplicity(sh, (3, 3)) == 0
        assert all(p.verdict is not Verdict.ZERO for p in predictions_for(sh, (3, 3)))
        report = census(2, 3)
        assert report.zero - report.predicted == 1

    def test_claim_miss_raises_naming_the_board(self, false_hook_claim):
        with pytest.raises(ArithmeticError, match=r"^2x3 census: rule hook predicts 0 "
                                                  r"for lambda=6; exact multiplicity is 1$"):
            census(2, 3)

    def test_lists_only_shapes_within_b_rows(self, monkeypatch):
        listing = decomposition.enum_partitions
        bounds = []

        def spy(n, max_parts=None, max_part=None):
            bounds.append(max_parts)
            return listing(n, max_parts, max_part)

        monkeypatch.setattr(decomposition, "enum_partitions", spy)
        report = census(2, 7)
        assert bounds == [7]
        assert (report.total, report.zero, report.predicted) == (105, 90, 54)

    def test_table_must_account_for_every_set_partition(self, monkeypatch):
        expand = symfunc.plethysm_h_expansion

        def off_by_one(*args, **kwargs):
            out = expand(*args, **kwargs)
            out[(6,)] += 1
            return out

        monkeypatch.setattr(symfunc, "plethysm_h_expansion", off_by_one)
        with pytest.raises(ArithmeticError, match=r"^2x3 table: sum of mult \* dim is 16, "
                                                  r"not \|Omega\| = 15$"):
            census(2, 3)

    @pytest.mark.slow
    def test_every_board_of_degree_31_to_36(self, record_property):
        # census raises on any claim miss, so every committed rule holds on
        # these boards; one process runs them all under a 1 GB address-space
        # cap. The totals go to the report, frozen nowhere until a second
        # route agrees with them.
        assert len(DEGREE_31_TO_36) == 29
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(foulkes.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", CENSUS_SCRIPT, json.dumps(DEGREE_31_TO_36)], env=env,
            capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
        assert done.returncode == 0, done.stderr
        reports = [json.loads(line) for line in done.stdout.splitlines()]
        assert [(r["a"], r["b"]) for r in reports] == DEGREE_31_TO_36
        for r in reports:
            assert 0 <= r["predicted"] <= r["zero"] < r["total"]
            record_property(f"census_{r['a']}x{r['b']}",
                            f"total={r['total']} zero={r['zero']} predicted={r['predicted']}")


class TestVerifyAll:
    @pytest.mark.parametrize("a,b", [(1, 5), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5)])
    def test_small_boards_clean(self, a, b):
        assert verify_all(a, b) == []

    def test_claim_miss_is_returned(self, false_hook_claim):
        assert verify_all(2, 3) == [Discrepancy((6,), Rule.HOOK, 0, 1)]


@pytest.mark.parametrize("run, label", [(census, "census"), (verify_all, "verify")])
def test_deadline_bounds_the_rule_pass(monkeypatch, run, label):
    hold = vanishing._hold

    def slow(*args):
        time.sleep(0.2)
        return hold(*args)

    monkeypatch.setattr(vanishing, "_hold", slow)
    with pytest.raises(ComputeBudgetExceeded,
                       match=rf"^2x3 {label} passed its time limit in the rule pass$"):
        run(2, 3, deadline=0.1)
    run(2, 3, deadline=60.0)
