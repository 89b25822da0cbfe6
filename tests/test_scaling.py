import math
import random
from fractions import Fraction

import pytest

from recstats.scaling import (
    _segments,
    curve_csv,
    curve_samples,
    fn_value,
    phin_value,
    sup_deviation,
    target_value,
    tau_csv,
    tau_series,
)
from recstats.tables import REC, SREC, big_ln, rec_table, srec_max, srec_table


class TestStepFunctions:
    def test_fn_examples_n5(self):
        assert fn_value(5, 1.0) == 1
        assert fn_value(5, 0.0) == 24
        assert fn_value(5, 0.5) == rec_table(5).coeffs[2] == 50

    def test_fn_below_first_cut(self):
        assert fn_value(5, 0.19) == 24  # held at c(5, 1)

    def test_phin_examples_n5(self):
        assert phin_value(5, 0.0) == 24
        assert phin_value(5, 1.0) == 1
        assert phin_value(5, 0.4) == srec_table(5).coeffs[6]

    def test_phin_branch_cuts(self):
        n = 5
        pairs = n * (n + 1)
        assert phin_value(n, 6 / pairs) == srec_table(n).coeffs[3]
        assert phin_value(n, 1 - 2 / pairs) == 1

    def test_phin_n2_is_constant_one(self):
        for x in (0.0, 0.3, 0.9, 1.0):
            assert phin_value(2, x) == 1

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            fn_value(1, 0.5)
        with pytest.raises(ValueError):
            fn_value(5, 1.5)
        with pytest.raises(ValueError):
            phin_value(5, -0.1)

    def test_exact_floor_at_awkward_quotients(self):
        # 7 * float(3/7) < 3: the exact floor keeps value and cut consistent
        assert fn_value(7, 3 / 7) == rec_table(7).coeffs[math.floor(7 * Fraction(3 / 7))]

    def test_matches_table_at_exact_breakpoints(self):
        for n in (4, 8, 16):
            row = rec_table(n)
            for k in range(1, n + 1):
                assert fn_value(n, k / n) == row.coeffs[k]


class TestSegments:
    def test_cover_unit_interval(self):
        for stat in (REC, SREC):
            for n in (2, 3, 7, 12):
                table = rec_table(n) if stat == REC else srec_table(n)
                segs = _segments(n, stat, table.coeffs)
                assert segs[0][0] == 0.0
                assert segs[-1][1] == 1.0
                for (_, hi, _), (lo, _, _) in zip(segs, segs[1:]):
                    assert hi == lo

    def test_values_positive(self):
        for _, _, value in _segments(6, SREC, srec_table(6).coeffs):
            assert value > 0


class TestSupDeviation:
    def test_rec_n2_by_hand(self):
        report = sup_deviation(2, REC)
        assert report.sup_dev == pytest.approx(1.0, abs=1e-15)
        assert report.argmax_x == 0.0
        assert report.tau == pytest.approx(math.log(2), abs=1e-12)

    def test_srec_n2_by_hand(self):
        report = sup_deviation(2, SREC)
        assert report.sup_dev == pytest.approx(1.0, abs=1e-15)
        assert report.argmax_x == 0.0

    def test_curve_vanishes_at_one(self):
        for n in (2, 5, 40):
            assert fn_value(n, 1.0) == 1
            assert phin_value(n, 1.0) == 1
            assert big_ln(fn_value(n, 1.0)) == 0.0

    def test_interior_never_beats_endpoints(self):
        rng = random.Random(99)
        for stat in (REC, SREC):
            for n in (3, 10, 25):
                table = rec_table(n) if stat == REC else srec_table(n)
                segs = _segments(n, stat, table.coeffs)
                report = sup_deviation(n, stat)
                for _ in range(10):
                    lo, hi, value = segs[rng.randrange(len(segs))]
                    y = big_ln(value) / (n * math.log(n))
                    end_dev = max(
                        abs(y - target_value(stat, lo)), abs(y - target_value(stat, hi))
                    )
                    assert end_dev <= report.sup_dev + 1e-12
                    for _ in range(25):
                        x = rng.uniform(lo, hi)
                        assert abs(y - target_value(stat, x)) <= end_dev + 1e-12

    def test_supplied_table_must_match(self):
        with pytest.raises(ValueError):
            sup_deviation(5, REC, table=rec_table(6))
        with pytest.raises(ValueError):
            sup_deviation(5, REC, table=srec_table(5))


class TestTauSeries:
    def test_report_fields_consistent(self):
        for report in tau_series(REC, 2, 20):
            assert report.tau == pytest.approx(report.sup_dev * math.log(report.n))
            assert 0.0 <= report.argmax_x <= 1.0

    def test_bounded_window(self):
        reports = tau_series(REC, 2, 60)
        taus = {r.n: r.tau for r in reports}
        c_emp = max(taus[n] for n in range(2, 51))
        assert all(taus[n] <= 1.1 * c_emp for n in range(51, 61))

    def test_streaming_matches_per_n(self):
        assert tau_series(SREC, 2, 25) == [sup_deviation(n, SREC) for n in range(2, 26)]

    def test_guards(self):
        with pytest.raises(ValueError):
            tau_series(SREC, 2, 301)
        with pytest.raises(ValueError):
            tau_series(REC, 1, 10)
        with pytest.raises(ValueError):
            tau_series(REC, 10, 5)


class TestCurveSamples:
    def test_rec_endpoints_n10(self):
        curve = curve_samples(10, REC)
        xs = [x for x, _ in curve.samples]
        ys = dict(curve.samples)
        assert xs == sorted(xs) and len(set(xs)) == len(xs)
        assert ys[0.0] == pytest.approx(big_ln(math.factorial(9)) / (10 * math.log(10)))
        assert ys[1.0] == 0.0

    def test_grid_mode(self):
        curve = curve_samples(12, SREC, num_points=7)
        assert len(curve.samples) == 7
        assert curve.samples[0][0] == 0.0 and curve.samples[-1][0] == 1.0
        with pytest.raises(ValueError):
            curve_samples(12, SREC, num_points=1)

    def test_breakpoint_count_srec(self):
        curve = curve_samples(8, SREC)
        # one first-branch segment, k = 3..top-2 middle segments, the top
        # segment, and the closing sample at x = 1
        assert len(curve.samples) == 1 + (srec_max(8) - 4) + 1 + 1


class TestCsv:
    def test_curve_csv_shape(self):
        text = curve_csv(curve_samples(6, SREC, num_points=4))
        lines = text.splitlines()
        assert lines[0] == "x,psi_n,target"
        assert len(lines) == 5
        assert text.endswith("\n")

    def test_tau_csv_shape(self):
        text = tau_csv(tau_series(REC, 2, 6))
        lines = text.splitlines()
        assert lines[0] == "n,sup_dev,tau,argmax_x"
        assert len(lines) == 6
