import itertools
import math
from fractions import Fraction

import pytest

from recstats.oracles import _subset_weight, rec_prob_sum, srec_prob_sum
from recstats.perm import Permutation, records
from recstats.probabilities import (
    PatternSpec,
    format_fraction,
    pattern_probability,
    rec_prob_bounds,
    srec_prob_bounds,
)
from recstats.tables import big_ln, rec_table, srec_max, srec_table


class TestPattern:
    def test_no_marks_is_one(self):
        assert pattern_probability(PatternSpec(5, {})) == 1

    def test_single_yes(self):
        assert pattern_probability(PatternSpec(2, {2: "Y"})) == Fraction(1, 2)

    def test_mixed_marks_against_enumeration(self):
        spec = PatternSpec(3, {2: "Y", 3: "N"})
        assert pattern_probability(spec) == Fraction(1, 3)
        matching = [
            p
            for p in itertools.permutations((1, 2, 3))
            if 2 in records(Permutation(p)).positions
            and 3 not in records(Permutation(p)).positions
        ]
        assert sorted(matching) == [(1, 3, 2), (2, 3, 1)]

    def test_position_one(self):
        assert pattern_probability(PatternSpec(4, {1: "Y", 3: "N"})) == Fraction(2, 3)
        with pytest.raises(ValueError):
            pattern_probability(PatternSpec(4, {1: "N"}))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PatternSpec(3, {4: "Y"})
        with pytest.raises(ValueError):
            PatternSpec(3, {2: "maybe"})

    def test_full_pattern_equals_single_sum_term(self):
        # one fully marked pattern is exactly one term of the rec sum
        for n in range(2, 7):
            for size in range(0, n):
                for chosen in itertools.combinations(range(2, n + 1), size):
                    marks = {j: ("Y" if j in chosen else "N") for j in range(2, n + 1)}
                    assert pattern_probability(PatternSpec(n, marks)) == _subset_weight(
                        n, set(chosen)
                    )


class TestRecSum:
    def test_all_records(self):
        for n in (1, 3, 7):
            assert rec_prob_sum(n, n) == Fraction(1, math.factorial(n))

    def test_single_record_telescopes(self):
        for n in (2, 5, 11):
            assert rec_prob_sum(n, 1) == Fraction(1, n)

    def test_against_table_n6(self):
        assert rec_prob_sum(6, 3) == Fraction(225, 720)

    def test_out_of_range_is_zero(self):
        assert rec_prob_sum(5, 0) == 0
        assert rec_prob_sum(5, 6) == 0

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            rec_prob_sum(13, 2)


class TestSrecSum:
    def test_singleton(self):
        for n in (2, 6, 10):
            assert srec_prob_sum(n, 1) == Fraction(1, n)

    def test_impossible_sum(self):
        for n in (3, 8):
            assert srec_prob_sum(n, 2) == 0

    def test_against_table(self):
        assert srec_prob_sum(5, 7) == Fraction(srec_table(5).coeffs[7], 120)


class TestRecBounds:
    def test_values_n6_x1(self):
        lo, hi = rec_prob_bounds(6, 1.0)
        assert lo == pytest.approx(math.log(1 / (6 * 720)), abs=1e-12)
        assert hi == pytest.approx(math.log(2**6 / 720), abs=1e-12)
        assert lo <= math.log(1 / 720) <= hi

    def test_brackets_n6_middle(self):
        lo, hi = rec_prob_bounds(6, 0.5)
        assert lo <= math.log(rec_table(6).coeffs[3] / 720) <= hi

    def test_values_n2(self):
        lo, hi = rec_prob_bounds(2, 1.0)
        assert math.exp(lo) == pytest.approx(0.25)
        assert math.exp(hi) == pytest.approx(2.0)

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            rec_prob_bounds(10, 0.05)
        with pytest.raises(ValueError):
            rec_prob_bounds(10, 1.2)

    def test_integer_rule_matches_fraction_oracle(self):
        for n in range(1, 60):
            points = {0.0, -0.5, 1.5}
            for k in range(n + 1):
                x = k / n
                points |= {x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf),
                           (k + 0.5) / n}
            for x in points:
                assert outcome(rec_prob_bounds, n, x) == outcome(rec_prob_bounds_oracle, n, x), (n, x)

    def test_non_finite_x(self):
        with pytest.raises(ValueError):
            rec_prob_bounds(10, math.nan)
        with pytest.raises(OverflowError):
            rec_prob_bounds(10, math.inf)


def rec_prob_bounds_oracle(n: int, x: float) -> tuple[float, float]:
    """rec_prob_bounds with its domain test and floor in Fractions."""
    if n < 1:
        raise ValueError("n must be >= 1")
    exact_x = Fraction(x)
    if not Fraction(1, n) <= exact_x <= 1:
        raise ValueError(f"x must lie in [1/n, 1], got {x}")
    k = math.floor(n * exact_x)
    log_lower = big_ln(math.factorial(n - k)) - math.log(n) - big_ln(math.factorial(n))
    log_upper = n * math.log(2.0) - big_ln(math.factorial(k))
    return log_lower, log_upper


def outcome(bounds, n: int, x: float):
    """The pair ``bounds`` returns, or the ValueError message it raises."""
    try:
        return bounds(n, x)
    except ValueError as exc:
        return str(exc)


class TestSrecBounds:
    def test_full_tuple(self):
        lo, hi = srec_prob_bounds(5, 15)
        assert lo == pytest.approx(math.log(1 / 600), abs=1e-12)
        assert hi == pytest.approx(math.log(32 / 120), abs=1e-12)
        assert lo <= math.log(1 / 120) <= hi

    def test_n6_k11(self):
        # brute force over subsets of {2..6} summing to 10: {4,6} gives
        # the minimum product 24 (beating {2,3,5} at 30)
        lo, hi = srec_prob_bounds(6, 11)
        assert lo == pytest.approx(math.log(1 / (6 * 24)), abs=1e-12)
        assert hi == pytest.approx(math.log(64 / 24), abs=1e-12)
        assert lo <= math.log(srec_table(6).coeffs[11] / 720) <= hi

    def test_small_k_uses_k_minus_one(self):
        lo, hi = srec_prob_bounds(10, 7)
        assert lo == pytest.approx(-math.log(10 * 6), abs=1e-12)
        actual = big_ln(srec_table(10).coeffs[7]) - big_ln(math.factorial(10))
        assert lo <= actual <= hi

    def test_rejects_zero_count_k(self):
        with pytest.raises(ValueError):
            srec_prob_bounds(6, 2)
        with pytest.raises(ValueError):
            srec_prob_bounds(6, srec_max(6) - 1)


def test_fraction_serialization():
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(1)) == "1/1"
    assert format_fraction(Fraction(0)) == "0/1"
