import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import repeat
from operator import add, truediv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recstats import scaling
from recstats.extremal import _i0
from recstats.scaling import (
    DeviationReport,
    _segments,
    _step_index,
    curve_csv,
    curve_samples,
    fn_value,
    phin_value,
    sup_deviation,
    target_value,
    tau_csv,
    tau_series,
)
from recstats import tables
from recstats.tables import REC, SREC, big_ln, rec_table, srec_max, srec_table
from recstats.verify import check_segment_interiors


def full_scan_sup(n: int, stat: str, row) -> DeviationReport:
    """Oracle: both endpoints of every constant segment, in order, first maximum kept."""
    n_ln_n = n * math.log(n)
    best_dev = -1.0
    best_x = 0.0
    for x_lo, x_hi, value in _segments(n, stat, row):
        y = big_ln(value) / n_ln_n
        for x in (x_lo, x_hi):
            dev = abs(y - target_value(stat, x))
            if dev > best_dev:
                best_dev = dev
                best_x = x
    return DeviationReport(n, stat, best_dev, best_dev * math.log(n), best_x)


def scan_row(n: int, stat: str, row) -> DeviationReport:
    return scaling._sup_from_row(n, stat, row)


def int_with_scaled_log(target: float, n_ln_n: float) -> int | None:
    """A positive int v with big_ln(v) / n_ln_n == target exactly, if one is near."""
    v = int(math.exp(target * n_ln_n))
    step = max(v >> 56, 1)
    for j in range(-4096, 4096):
        if big_ln(v + j * step) / n_ln_n == target:
            return v + j * step
    return None


def planted_rec_row(n: int, k: int, value: int, x: float) -> list[int] | None:
    """Rec row near the target curve, with ``value`` at k and a tie at x = 1.

    Every other middle value is the power of two nearest the target at
    its segment's midpoint.  The last value is chosen so that its
    deviation at x = 1 equals the planted one at ``x`` exactly; the
    first-maximum rule must then report ``x``, the earlier of the two.
    """
    n_ln_n = n * math.log(n)
    row = [0] * (n + 1)
    for j in range(1, n):
        row[j] = 1 << round(target_value(REC, (j + 0.5) / n) * n_ln_n / math.log(2))
    row[k] = value
    dev = abs(big_ln(value) / n_ln_n - target_value(REC, x))
    last = int_with_scaled_log(dev, n_ln_n)
    if last is None:
        return None
    row[n] = last
    return row


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


def step_index_oracle(n: int, stat: str, x: float) -> int:
    """The step curves' branch tests and floor, in Fractions: the row index of the value at x."""
    exact = Fraction(x)
    if stat == REC:
        return math.floor(n * exact) if exact >= Fraction(1, n) else 1
    pairs = n * (n + 1)
    if exact < Fraction(6, pairs):
        return 1  # C(n, 1) = (n-1)!
    if exact >= 1 - Fraction(2, pairs):
        return srec_max(n)  # C(n, top) = 1
    return math.floor(srec_max(n) * exact)


class TestStepIndex:
    """The integer branch tests on x.as_integer_ratio() against the Fraction oracle."""

    def test_breakpoints_and_neighbours(self):
        for n in range(2, 61):
            pairs = n * (n + 1)
            cuts = {k / n for k in range(n + 1)} | {2 * k / pairs for k in range(pairs // 2 + 1)}
            xs = {0.0, 1.0, 5e-324}
            for x in cuts:
                xs |= {x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)}
            for x in xs:
                for stat in (REC, SREC):
                    assert _step_index(n, stat, x) == step_index_oracle(n, stat, x), (n, stat, x)

    @given(st.integers(2, 300), st.floats(0.0, 1.0))
    def test_random_points(self, n, x):
        for stat in (REC, SREC):
            assert _step_index(n, stat, x) == step_index_oracle(n, stat, x)


class TestSegments:
    def test_cover_unit_interval(self):
        for stat in (REC, SREC):
            for n in (2, 3, 7, 12):
                table = rec_table(n) if stat == REC else srec_table(n)
                segs = list(_segments(n, stat, table.coeffs))
                assert segs[0][0] == 0.0
                assert segs[-1][1] == 1.0
                for (_, hi, _), (lo, _, _) in zip(segs, segs[1:]):
                    assert hi == lo

    def test_values_positive(self):
        for _, _, value in _segments(6, SREC, srec_table(6).coeffs):
            assert value > 0

    def test_segments_agree_with_step_index(self):
        # the list form and the integer branch tests read the same row entries
        for stat in (REC, SREC):
            for n in range(2, 41):
                row = (rec_table(n) if stat == REC else srec_table(n)).coeffs
                segs = list(_segments(n, stat, row))
                for x_lo, x_hi, value in segs:
                    if x_lo < x_hi:
                        mid = (x_lo + x_hi) / 2
                        assert row[_step_index(n, stat, mid)] == value, (stat, n, mid)
                assert row[_step_index(n, stat, 1.0)] == segs[-1][2], (stat, n)

    def test_full_rows_give_every_middle_segment(self, rec_rows_300, srec_rows_150):
        # a row of length top + 1: middle k from a to b - 1, then row[top]
        for stat, rows in ((REC, rec_rows_300), (SREC, srec_rows_150)):
            for n in (2, 3, 5, 6, 40, 150):
                row = rows[n]
                top, a, b = scaling._cuts(n, stat)
                middle = [(k / top, (k + 1) / top, row[k]) for k in range(a, b)]
                expected = [(0.0, a / top, row[1]), *middle, (max(a, b) / top, 1.0, row[top])]
                assert list(_segments(n, stat, row)) == expected, (stat, n)

    def test_prefix_ends_the_middle_segments(self):
        # a row shorter than top + 1 is a certified prefix: its middle
        # segments end at its last index, and the last segment takes 1
        for stat, ns in ((REC, range(3, 60)), (SREC, range(6, 60))):
            for n in ns:
                f = math.factorial(n - 1)
                row = (0, f) if stat == REC else (0, f, 0, f, f // 2, f // 3)
                top, a, b = scaling._cuts(n, stat)
                segs = list(_segments(n, stat, row))
                assert segs[0] == (0.0, a / top, f)
                assert [value for _, _, value in segs[1:-1]] == list(row[a:])
                assert segs[-2][0] == (len(row) - 1) / top
                assert segs[-1] == (max(a, b) / top, 1.0, 1), (stat, n)


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
        check_segment_interiors(range(3, 26), 99)


class TestPrunedScanMatchesFullScan:
    """The scan in sup_deviation against the full-scan oracle, report for report.

    The scan's only pruning is a certificate's cut; without one it reads
    every segment.  ``full_scan_sup`` stays the reference: its own loop
    over ``_segments``, through the public ``target_value``.
    """

    def test_rec_rows(self, rec_rows_300):
        for n in range(2, 301):
            assert scan_row(n, REC, rec_rows_300[n]) == full_scan_sup(n, REC, rec_rows_300[n])

    def test_srec_rows(self, srec_rows_150):
        for n in range(2, 151):
            row = srec_rows_150[n]
            assert scan_row(n, SREC, row) == full_scan_sup(n, SREC, row)

    def test_random_rows(self):
        rng = random.Random(2008)
        for stat in (REC, SREC):
            for n in list(range(2, 12)) + [rng.randrange(12, 70) for _ in range(30)]:
                top = n if stat == REC else srec_max(n)
                max_bits = int(1.5 * n * math.log(n) / math.log(2)) + 2
                wild = [0] + [rng.getrandbits(rng.randrange(1, max_bits)) + 1 for _ in range(top)]
                # values within a few binades of the target, as in real rows
                near = [0]
                for k in range(1, top + 1):
                    bits = target_value(stat, (k + 0.5) / (top + 1)) * n * math.log(n) / math.log(2)
                    near.append(rng.getrandbits(max(1, round(bits) + rng.randrange(-3, 4))) + 1)
                for row in (wild, near):
                    assert scan_row(n, stat, row) == full_scan_sup(n, stat, row)

    def test_constant_rows(self):
        # adjacent segments share an endpoint and a value, so every
        # interior endpoint ties with its neighbour
        for stat in (REC, SREC):
            for n in (2, 3, 9, 40):
                top = n if stat == REC else srec_max(n)
                for value in (1, 2, 3**50, 1 << 200):
                    row = [0] + [value] * top
                    assert scan_row(n, stat, row) == full_scan_sup(n, stat, row)

    def test_planted_below_target(self):
        # A power of two 2^m in the middle of the row, far below the
        # target, its deviation at k/n tied with the last segment's at
        # x = 1: the scan must keep k/n, the first maximum.
        cases = 0
        for n in range(30, 46):
            n_ln_n = n * math.log(n)
            size = math.isqrt(n - 1) + 1
            k = 1 + (n // 2 // size) * size
            for m in range(int(0.15 * n_ln_n / math.log(2)), int(0.3 * n_ln_n / math.log(2))):
                row = planted_rec_row(n, k, 1 << m, k / n)
                if row is None:
                    continue
                expected = full_scan_sup(n, REC, row)
                assert expected.argmax_x == k / n
                assert scan_row(n, REC, row) == expected
                cases += 1
        assert cases > 100

    def test_planted_above_target(self):
        # 2^b - 1 in the middle of the row, far above the target, its
        # deviation at (k+1)/n tied with x = 1: the scan must keep
        # (k+1)/n, the first maximum.  At these b the float log of 2^b - 1
        # is that of 2^b.
        cases = 0
        for n in range(30, 46):
            n_ln_n = n * math.log(n)
            size = math.isqrt(n - 1) + 1
            k = (n // 2 // size) * size
            for b in range(int(0.75 * n_ln_n / math.log(2)), int(0.9 * n_ln_n / math.log(2))):
                row = planted_rec_row(n, k, (1 << b) - 1, (k + 1) / n)
                if row is None:
                    continue
                expected = full_scan_sup(n, REC, row)
                assert expected.argmax_x == (k + 1) / n
                assert scan_row(n, REC, row) == expected
                cases += 1
        assert cases > 100

    def test_zero_in_middle_still_raises(self):
        # k = 17 sits where no segment comes near the first segment's
        # deviation: the scan reads every value it is given, so each one
        # below 1, negative ones too, still raises.
        for k, value in ((17, 0), (17, -(2**40)), (17, -1), (2, -(2**40)), (19, -3)):
            row = [0] + [2**40] * 20
            row[k] = value
            with pytest.raises(ValueError, match="positive integer"):
                scan_row(20, REC, row)

    def test_scan_memory_is_small_beside_the_row(self):
        # The scan streams its segments one at a time and builds no list;
        # a list of the segments peaked at 1.3 times the row's bytes
        # (CPython 3.11.7).
        table = srec_table(120)
        row_bytes = sys.getsizeof(table.coeffs) + sum(map(sys.getsizeof, table.coeffs))
        tracemalloc.start()
        try:
            scaling._sup_from_row(120, SREC, table.coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * row_bytes, f"scan peaked at {peak / row_bytes:.1%} of the row"


def spy(monkeypatch, name: str) -> list:
    """Record the arguments of every call of scaling's ``name``, which still runs."""
    calls = []
    real = getattr(scaling, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scaling, name, wrapper)
    return calls


def end_floor(n: int) -> float:
    """The largest deviation of the srec end segments and of segments 3..5 (n >= 6), from exact ints."""
    top, f = srec_max(n), math.factorial(n - 1)
    n_ln_n = n * math.log(n)
    segments = ((0, 3, f), (3, 4, f), (4, 5, f // 2), (5, 6, f // 3), (top - 1, top, 1))
    return max(abs(big_ln(value) / n_ln_n - target_value(SREC, x / top))
               for lo, hi, value in segments for x in (lo, hi))


A_LOW = 0.4678  # lemma 1 of the scaling docstring: A_LOW <= a_m <= 1 for m >= 5
N0 = 65  # the srec theorem of the scaling docstring holds from here on


def srec_margin(n: int) -> float:
    """g(n) n ln n, the srec theorem's margin below the floor, for n >= N0.

    Below N0 the exact rows stand in for the proof, with the prefix's
    margin ln(3 A_LOW).
    """
    if n < N0:
        return math.log(3 * A_LOW)
    return (math.log(3 * A_LOW) - (math.log(n) - 1) ** 2 / (8 * n)
            - 5 * n * math.log(n) / (n * n + n - 5))


def count(rows, m: int, j: int) -> int:
    """C(m, j) from a dict of dense srec rows; 0 off the row, and for m < 1."""
    row = rows.get(m, ())
    return row[j] if 1 <= j < len(row) else 0


def run_of(n: int, k: int) -> tuple[int, int]:
    """(q0, r) of k > n: q0 = n - i0 and k = sum[q0..n] + 1 + r."""
    q0 = n - _i0(n, k)
    return q0, k - 1 - (n + q0) * (n + 1 - q0) // 2


def family_bound(rows, q0: int, r: int) -> int:
    """The exact total weight of the families F_q0 and F_q0+1 of the scaling docstring."""
    return (q0 - 2) * count(rows, q0 - 2, r + 1) + (q0 - 1) * count(rows, q0 - 1, r + 1 + q0)


class TestSrecCut:
    """Srec rows read only to k = 5 for n >= 6: no middle segment k >= 6 reaches the floor (scaling docstring)."""

    def test_prefix_identity(self, srec_rows_150):
        # C(n, k) (N-1)! = C(N, k) (n-1)! for k <= n + 1 <= N + 1; each row
        # against N = 150 gives every pair
        big, f_big = srec_rows_150[150], math.factorial(149)
        for n in range(1, 151):
            f = math.factorial(n - 1)
            for k in range(n + 2):
                assert count(srec_rows_150, n, k) * f_big == big[k] * f, (n, k)
        assert [Fraction(big[k], f_big) for k in range(6)] == [0, 1, 0, 1, Fraction(1, 2), Fraction(1, 3)]

    def test_suffix_identity(self, srec_rows_150):
        # C(n, top - j) = b_j for j <= n, b_j the coefficient of z^j in
        # prod(1 + (u - 1) z^u for u >= 2): the non-records U = {2..n} - S
        # sum to top - k, each u weighs u - 1, and no u > n fits in j <= n
        b = [1] + [0] * 150
        for u in range(2, 151):
            for j in range(150, u - 1, -1):
                b[j] += (u - 1) * b[j - u]
        for n in range(1, 151):
            row, top = srec_rows_150[n], srec_max(n)
            assert [row[top - j] for j in range(n + 1)] == b[:n + 1], n

    def test_band_formula(self, srec_rows_150):
        # for n + 1 < k <= 2n + 1, S holds exactly one element s > n:
        # C(n, k)/(n-1)! = a_{k-1} - sum over s in [n+1, k-1] of a_{k-1-s}/(s-1)
        big, f_big = srec_rows_150[150], math.factorial(149)
        a = [Fraction(big[j + 1], f_big) for j in range(150)]
        checked = 0
        for n in range(1, 75):
            for k in range(n + 2, 2 * n + 2):
                band = a[k - 1] - sum(a[k - 1 - s] / (s - 1) for s in range(n + 1, k))
                assert Fraction(count(srec_rows_150, n, k), math.factorial(n - 1)) == band, (n, k)
                checked += 1
        assert checked == 2775

    def test_family_bound_is_sound_for_every_k_small(self, srec_rows_150):
        for n in range(3, 61):
            row = srec_rows_150[n]
            for k in range(n + 1, srec_max(n) + 1):
                assert family_bound(srec_rows_150, *run_of(n, k)) <= row[k], (n, k)

    def test_family_bound_is_sound_on_sampled_rows(self, srec_rows_150):
        for n in (75, 101, 128, 149, 150):
            row = srec_rows_150[n]
            for k in range(n + 1, srec_max(n) + 1):
                assert family_bound(srec_rows_150, *run_of(n, k)) <= row[k], (n, k)

    def test_lemma_2_on_real_rows(self, srec_rows_150):
        # C(n, k) >= 0.4678 (q0 - 2)! on every run of q0 >= 9, in exact ints
        factorials = [math.factorial(j) for j in range(150)]
        for n in range(9, 151):
            row = srec_rows_150[n]
            for k in range(n + 1, srec_max(n) - 1):
                q0, _ = run_of(n, k)
                if q0 >= 9:
                    assert row[k] * 10**4 >= 4678 * factorials[q0 - 2], (n, k)

    def test_lemma_1(self):
        # 0.4678 <= a_m <= 1 for 5 <= m <= 3500, the product formed in floats:
        # every coefficient is a sum of nonnegative terms, so each float lies
        # within a factor (1 + 2^-53)^(2m) < 1 + 1e-9 of a_m
        m_max = 3500
        a = [1.0] + [0.0] * m_max
        for s in range(2, m_max + 1):
            a[s:] = map(add, a[s:], map(truediv, a[:-s], repeat(s - 1)))
        assert a[:9] == pytest.approx([1, 0, 1, 1 / 2, 1 / 3, 3 / 4, 8 / 15, 7 / 12, 131 / 280], rel=1e-15)
        assert min(a[5:]) >= A_LOW * (1 + 1e-9) and max(a[5:]) <= 1 - 1e-9
        # the arithmetic of the tail bound for m > 3500
        theta = 0.8
        beta = [0.0] + [(1 - theta) * (3 * s + 2) / (2 * s) + 2 * theta * math.exp(1 / s) for s in range(1, 7)]
        head = 2 ** (theta - 2) * beta[2] + sum(s ** (theta - 2) * s / (s - 1) * beta[s] for s in (3, 4, 5))
        tail = 6 / 5 * beta[6] * 5 * 5.5 ** (theta - 1)
        assert 2 * math.exp(2.5 - math.pi ** 2 / 6) < 4.71 and head < 3.39 and tail < 9.49
        assert 4.71 * 12.88 < 60.7 and 60.7 * m_max ** -theta + 1e-9 < 0.0888
        assert math.exp(-0.5772156649015329) - 0.0888 > A_LOW

    def test_skipped_segments_deviate_less_on_real_rows(self, srec_rows_150):
        # the theorem with no slack: both ends of every middle segment
        # k >= 6 deviate by at most the floor less g(n), the largest
        # deviation of the segments the prefix holds
        assert all(0 < srec_margin(n) < srec_margin(n + 1) for n in range(N0, 5000))
        for n in range(6, 151):
            row, top, n_ln_n = srec_rows_150[n], srec_max(n), n * math.log(n)
            floor = end_floor(n) - srec_margin(n) / n_ln_n
            for k in range(6, top - 1):
                y = big_ln(row[k]) / n_ln_n
                for x in (k / top, (k + 1) / top):
                    assert abs(y - target_value(SREC, x)) <= floor, (n, k)

    def test_sup_sits_at_segment_5_from_n_10(self):
        for report in tau_series(SREC, 10, 300):
            n = report.n
            closed = (math.log(n) * math.sqrt(1 - 10 / (n * (n + 1)))
                      - big_ln(math.factorial(n - 1) // 3) / n)
            assert report.argmax_x == 5 / srec_max(n), n
            assert report.tau == pytest.approx(closed, rel=1e-12), n

    def test_prefix_scans_match_full_rows(self, srec_rows_150):
        full = [scan_row(n, SREC, srec_rows_150[n]) for n in range(2, 151)]
        assert tau_series(SREC, 2, 150) == full
        for n in (2, 3, 5, 6, 23, 24, 108, 150):
            assert sup_deviation(n, SREC) == full[n - 2]

    def test_certificates_build_no_row(self, monkeypatch):
        def no_row(*args):
            raise AssertionError("a certified srec sup built a row")

        monkeypatch.setattr(tables, "iter_srec_rows", no_row)
        monkeypatch.setattr(scaling, "srec_table", no_row)
        tau_series(SREC, 6, 300)
        sup_deviation(1200, SREC)
        sup_deviation(3000, SREC)


def rec_end_floor(n: int) -> float:
    """The largest deviation of the rec end segments, (n-1)! on [0, 1/n] and 1 at x = 1."""
    y = big_ln(math.factorial(n - 1)) / (n * math.log(n))
    ends = (abs(y - target_value(REC, 0.0)), abs(y - target_value(REC, 1 / n)),
            target_value(REC, 1.0))
    return max(ends)


class TestRecCut:
    """Rec rows read only to k = 1: no middle segment k >= 2 reaches the deviation at x = 0 (scaling docstring)."""

    def test_bounds_hold_in_exact_integers(self, rec_rows_300):
        for n in range(2, 301):
            row, pairs = rec_rows_300[n], math.comb(n, 2)
            for k in range(1, n + 1):
                assert math.factorial(n - 1) <= row[k] * math.factorial(k - 1), (n, k)
                assert row[k] * math.factorial(n - k) <= pairs ** (n - k), (n, k)

    def test_skipped_segments_deviate_less_on_real_rows(self, rec_rows_300):
        # the theorem with no slack: both ends of every middle segment
        # k >= 2 deviate by at most F - min(2/n, (n - 1 - ln n)/(2 n ln n)),
        # F the deviation at x = 0, the largest of the end segments'
        for n in range(2, 301):
            row, n_ln_n = rec_rows_300[n], n * math.log(n)
            floor = rec_end_floor(n) - min(2 / n, (n - 1 - math.log(n)) / (2 * n_ln_n))
            for k in range(2, n):
                y = big_ln(row[k]) / n_ln_n
                for x in (k / n, (k + 1) / n):
                    assert abs(y - target_value(REC, x)) <= floor, (n, k)

    def test_prefix_scans_match_full_rows(self, rec_rows_300):
        full = [full_scan_sup(n, REC, rec_rows_300[n]) for n in range(2, 301)]
        assert tau_series(REC, 2, 300) == full
        for n in (2, 3, 4, 5, 100, 300):
            assert sup_deviation(n, REC) == full[n - 2]

    def test_certificates_build_no_row(self, monkeypatch):
        def no_row(*args):
            raise AssertionError("a certified rec sup built a row")

        monkeypatch.setattr(tables, "iter_rec_rows", no_row)
        monkeypatch.setattr(scaling, "rec_table", no_row)
        tau_series(REC, 2, 400)
        sup_deviation(1000, REC)


class TestOneSweep:
    """One pass over n per certificate; ``_reports`` builds a whole row only for srec n <= 5."""

    def test_certified_cuts_read_only_the_prefix(self, monkeypatch):
        whole = spy(monkeypatch, "_row")
        tau_series(REC, 2, 400)
        tau_series(SREC, 6, 300)
        sup_deviation(1200, SREC)
        assert whole == []


class TestTauSeries:
    def test_report_fields_consistent(self):
        for report in tau_series(REC, 2, 20):
            assert report.tau == pytest.approx(report.sup_dev * math.log(report.n))
            assert 0.0 <= report.argmax_x <= 1.0

    def test_streaming_matches_per_n(self):
        assert tau_series(SREC, 2, 25) == [sup_deviation(n, SREC) for n in range(2, 26)]
        # the series carries (n-1)! from math.factorial(n_min - 1)
        assert tau_series(SREC, 290, 300) == [sup_deviation(n, SREC) for n in range(290, 301)]

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

    def test_num_points_checked_before_the_row(self, monkeypatch):
        def no_rows(n):
            raise AssertionError("row built before num_points was checked")

        monkeypatch.setattr(scaling, "rec_table", no_rows)
        monkeypatch.setattr(scaling, "srec_table", no_rows)
        with pytest.raises(ValueError, match="^num_points must be >= 2$"):
            curve_samples(400, SREC, 1)

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
