import math
import random
import warnings

import mpmath
import pytest

from recstats.oracles import phi_prime_direct
from recstats.tables import big_ln, rec_table
from recstats.temme import (
    TemmeEstimate,
    digamma,
    digamma_diff,
    estimate_csv,
    log_gamma,
    phi,
    phi_prime,
    phi_second,
    scaled_limit_table,
    solve_u1,
    temme_estimate,
    trigamma,
)
from recstats.verify import (
    check_scaled_limit_trend,
    check_solver_residuals,
    check_u1_enclosure,
)

mpmath.mp.dps = 40

EULER_GAMMA = 0.5772156649015329


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-12

    def test_integer_factorials(self):
        assert log_gamma(11.0) == pytest.approx(math.log(3628800), abs=1e-10)

    def test_half_with_duplication(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)
        # Legendre duplication: lnG(2x) = lnG(x) + lnG(x+1/2) + (2x-1) ln 2 - ln(sqrt(pi))
        for x in (0.5, 1.3, 4.75):
            lhs = log_gamma(2 * x)
            rhs = (
                log_gamma(x)
                + log_gamma(x + 0.5)
                + (2 * x - 1) * math.log(2)
                - 0.5 * math.log(math.pi)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_against_mpmath(self):
        rng = random.Random(1)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(0.05), math.log(1e4)))
            assert abs(log_gamma(x) - float(mpmath.loggamma(x))) <= 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)


class TestPsi:
    def test_recurrence_at_fixed_point(self):
        x = 3.7
        assert digamma(x + 1) - digamma(x) == pytest.approx(1 / x, abs=1e-10)

    def test_trigamma_at_one_against_partial_sums(self):
        # sum of 1/k^2 with an Euler-Maclaurin tail, an independent oracle
        cut = 20000
        partial = math.fsum(1.0 / (k * k) for k in range(1, cut + 1))
        tail = 1.0 / cut - 1.0 / (2 * cut**2) + 1.0 / (6 * cut**3)
        assert trigamma(1.0) == pytest.approx(partial + tail, abs=1e-9)

    def test_digamma_at_integer_against_harmonic(self):
        harmonic = math.fsum(1.0 / j for j in range(1, 21))
        assert digamma(21.0) == pytest.approx(harmonic - EULER_GAMMA, abs=1e-10)

    def test_against_mpmath(self):
        rng = random.Random(2)
        for _ in range(200):
            x = math.exp(rng.uniform(math.log(0.05), math.log(1e4)))
            assert abs(digamma(x) - float(mpmath.digamma(x))) <= 1e-10
            assert abs(trigamma(x) - float(mpmath.polygamma(1, x))) <= 1e-10

    def test_diff_matches_mpmath_without_cancellation(self):
        rng = random.Random(3)
        for _ in range(200):
            a = math.exp(rng.uniform(math.log(0.1), math.log(1e5)))
            b = a + math.exp(rng.uniform(math.log(1e-3), math.log(1e5)))
            want = float(mpmath.digamma(b) - mpmath.digamma(a))
            assert digamma_diff(a, b) == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestPhi:
    def test_root_at_sqrt2(self):
        assert phi_prime(math.sqrt(2.0), 2, 1) == pytest.approx(0.0, abs=1e-9)

    def test_sign_far_right(self):
        # f(u) ~ n/u for large u, so phi' ~ (n-m)/u > 0
        assert phi_prime(1e6, 10, 5) > 0

    def test_sign_near_zero(self):
        assert phi_prime(1e-6, 10, 5) < -1e5

    def test_matches_direct_sum(self):
        rng = random.Random(4)
        for n in (5, 50, 500, 2000, 10000):
            for _ in range(20):
                m = rng.randint(1, n - 1)
                u = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
                assert abs(phi_prime(u, n, m) - phi_prime_direct(u, n, m)) <= 1e-9

    def test_phi_value_matches_products(self):
        # ln((u+1)(u+2)(u+3)) - 2 ln u at u = 2
        expected = math.log(3 * 4 * 5) - 2 * math.log(2)
        assert phi(2.0, 3, 2) == pytest.approx(expected, abs=1e-12)

    def test_second_derivative_by_differences(self):
        u, n, m = 3.1, 12, 5
        h = 1e-5
        numeric = (phi_prime(u + h, n, m) - phi_prime(u - h, n, m)) / (2 * h)
        assert phi_second(u, n, m) == pytest.approx(numeric, rel=1e-6)


class TestSolver:
    def test_residual_contract(self):
        check_solver_residuals((2, 10, 100, 400, 1000))

    def test_residuals_exhaustive_small(self):
        check_solver_residuals(range(2, 25))

    def test_enclosure_n100(self):
        u1 = solve_u1(100, 50)
        assert 5.0 <= u1 <= 101.0

    def test_enclosure_large_n(self):
        check_u1_enclosure((50, 100, 200))

    def test_rejects_degenerate_m(self):
        with pytest.raises(ValueError):
            solve_u1(10, 0)
        with pytest.raises(ValueError):
            solve_u1(10, 10)


class TestEstimate:
    def test_close_to_exact_n20(self):
        est = temme_estimate(20, 10)
        exact_log = big_ln(rec_table(20).coeffs[10])
        assert math.exp(est.log_estimate - exact_log) == pytest.approx(1.0, abs=0.01)

    def test_fields_are_finite_and_consistent(self):
        est = temme_estimate(30, 12)
        assert isinstance(est, TemmeEstimate)
        assert est.t1 == pytest.approx(11 / 18)
        for value in (est.u1, est.B, est.g, est.log_estimate):
            assert math.isfinite(value)

    def test_scaled_value_heads_to_half(self):
        est = temme_estimate(100, 50)
        assert abs(est.log_estimate / (100 * math.log(100)) - 0.5) < 0.1

    def test_degenerate_columns_rejected(self):
        for n, m in ((10, 0), (10, 1), (10, 10), (2, 1)):
            with pytest.raises(ValueError):
                temme_estimate(n, m)


class TestScaledLimit:
    def test_deviation_decreases(self):
        assert [n for n, _ in scaled_limit_table(0.5, (25, 50, 100, 200))] == [25, 50, 100, 200]
        check_scaled_limit_trend((0.5,), (25, 50, 100, 200))

    def test_trend_cross_check_at_x03(self):
        values = dict(scaled_limit_table(0.3, (50, 200)))
        assert abs(values[200] - 0.7) <= abs(values[50] - 0.7)

    def test_near_one_heads_to_zero(self):
        (_, value), = scaled_limit_table(0.9, (200,))
        assert 0.0 < value < 0.25

    def test_skips_degenerate_n_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = scaled_limit_table(0.04, (10, 100))
        assert [n for n, _ in values] == [100]
        assert any("skipping n=10" in str(w.message) for w in caught)

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            scaled_limit_table(0.0, (10,))


class TestCsv:
    def test_with_and_without_exact(self):
        est = temme_estimate(20, 10)
        exact_log = big_ln(rec_table(20).coeffs[10])
        text = estimate_csv([(est, None), (est, exact_log)])
        lines = text.splitlines()
        assert lines[0] == "n,m,u1,t1,B,g,log_estimate,log_exact,rel_error"
        assert lines[1].endswith(",,")
        assert len(lines[2].split(",")) == 9
