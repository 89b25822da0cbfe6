"""
Acceptance gate: the release criteria, each at its stated tolerance.

Every test prints one PASS line on success (pytest shows it with -v -s
or in failure reports); tolerances are pinned here, not configurable.
"""

import itertools
import math
import random
import time

import pytest

from recstats import (
    PatternSpec,
    Permutation,
    big_ln,
    brute_force_tables,
    gamma_bounds,
    i0_closed,
    i0_greedy,
    lehmer_encode,
    min_product,
    pattern_probability,
    rec_prob_bounds,
    rec_prob_sum,
    rec_table,
    records,
    solve_u1,
    srec_count_bounds,
    srec_max,
    srec_prob_bounds,
    srec_prob_sum,
    srec_table,
    sup_deviation,
    tau_series,
    temme_estimate,
)
from recstats.cli import main
from recstats.tables import REC, SREC, CountTable
from recstats.temme import digamma, log_gamma, trigamma

SLACK = 1e-9


def _report(line: str) -> None:
    print(line)


def test_criterion_1_table_oracle_equivalence(rec_rows_300, srec_rows_150):
    started = time.monotonic()
    for n in range(1, 9):
        rec_bf, srec_bf = brute_force_tables(n)
        assert rec_bf.coeffs == rec_table(n).coeffs, f"rec row differs at n={n}"
        assert srec_bf.coeffs == srec_table(n).coeffs, f"srec row differs at n={n}"
    for n in range(1, 301):
        assert sum(rec_rows_300[n]) == math.factorial(n), f"rec row sum at n={n}"
    for n in range(1, 151):
        assert sum(srec_rows_150[n]) == math.factorial(n), f"srec row sum at n={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, budget 60s"
    _report(f"PASS criterion 1: exact-table oracle equivalence ({elapsed:.1f}s)")


def test_criterion_2_worked_example():
    p = Permutation((4, 7, 5, 1, 6, 8, 2, 3))
    profile = records(p)
    assert (profile.rec, profile.srec) == (3, 9)
    assert lehmer_encode(p) == (0, 0, 1, 3, 1, 0, 5, 5)
    _report("PASS criterion 2: worked example (rec=3, srec=9, code 0,0,1,3,1,0,5,5)")


def test_criterion_3_formula_identities():
    started = time.monotonic()
    for n in range(1, 11):
        fact = math.factorial(n)
        rec_row = rec_table(n)
        for k in range(0, n + 2):
            expected = rec_row.coeffs[k] if k <= n else 0
            assert rec_prob_sum(n, k) * fact == expected, f"rec formula at n={n}, k={k}"
        srec_row = srec_table(n)
        for k in range(1, srec_max(n) + 1):
            assert srec_prob_sum(n, k) * fact == srec_row.coeffs[k], (
                f"srec formula at n={n}, k={k}"
            )
    for n in range(1, 13):
        total = sum(
            pattern_probability(PatternSpec(n, dict(zip(range(2, n + 1), marks))))
            for marks in itertools.product("YN", repeat=n - 1)
        )
        assert total == 1, f"pattern total at n={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget 120s"
    _report(f"PASS criterion 3: exact formula identities ({elapsed:.1f}s)")


def test_criterion_4_probability_and_count_bounds(srec_rows_150):
    for n in range(1, 31):
        row = rec_table(n)
        log_fact = big_ln(math.factorial(n))
        for k in range(1, n + 1):
            # mid-cell x floors to k without boundary rounding doubt
            x = 1.0 if k == n else (k + 0.5) / n
            lo, hi = rec_prob_bounds(n, x)
            actual = big_ln(row.coeffs[k]) - log_fact
            assert lo - SLACK <= actual <= hi + SLACK, f"rec bracket n={n}, k={k}"
    for n in range(1, 61):
        row = srec_rows_150[n]
        log_fact = big_ln(math.factorial(n))
        top = srec_max(n)
        for k in range(1, top + 1):
            if k == 2 or k == top - 1:
                continue
            lo, hi = srec_prob_bounds(n, k)
            actual = big_ln(row[k]) - log_fact
            assert lo - SLACK <= actual <= hi + SLACK, f"srec prob bracket n={n}, k={k}"
            if k >= 3 and (k <= n or n >= 4):
                lo_c, hi_c = srec_count_bounds(n, k)
                log_count = big_ln(row[k])
                assert lo_c - SLACK <= log_count <= hi_c + SLACK, (
                    f"count bracket n={n}, k={k}"
                )
    _report("PASS criterion 4: probability and count brackets (n <= 30 rec, n <= 60 srec)")


def test_criterion_5_extremal_structure():
    started = time.monotonic()
    for n in range(1, 16):
        top = srec_max(n)
        best = {}
        for size in range(0, n):
            for chosen in itertools.combinations(range(2, n + 1), size):
                k = 1 + sum(chosen)
                candidate = (math.prod(chosen), (1,) + chosen)
                if k not in best or candidate < best[k]:
                    best[k] = candidate
        for k in range(1, top + 1):
            if k == 2 or k == top - 1:
                continue
            got = min_product(n, k)
            assert (got.m, got.witness) == best[k], f"DP vs brute force n={n}, k={k}"
    for n in range(3, 61):
        for k in range(3, n + 1):
            got = min_product(n, k)
            assert got.m == k - 1 and got.witness == (1, k - 1), f"m(n,k) n={n}, k={k}"
    for n in range(4, 201):
        for k in range(n + 1, srec_max(n) + 1):
            assert i0_closed(n, k) == i0_greedy(n, k), f"i0 mismatch n={n}, k={k}"
    for n in range(4, 41):
        top = srec_max(n)
        for k in range(n + 1, top + 1):
            if k == top - 1:
                continue
            bounds = gamma_bounds(n, k)
            log_m = big_ln(min_product(n, k).m)
            assert bounds.log_lower - SLACK <= log_m <= bounds.log_upper + SLACK, (
                f"squeeze n={n}, k={k}"
            )
    for n in range(4, 501):
        pairs = n * (n + 1)
        for k in range(n + 1, srec_max(n)):
            x = 2 * k / pairs
            if abs(n - i0_closed(n, k) - n * math.sqrt(1.0 - x)) > 3.0:
                pytest.fail(f"sqrt distance bound broken at n={n}, k={k}")
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget 300s"
    _report(f"PASS criterion 5: extremal structure ({elapsed:.1f}s)")


def test_criterion_6_rec_uniform_convergence(rec_rows_300):
    taus = {}
    for n in range(2, 201):
        taus[n] = sup_deviation(n, REC, table=CountTable(n, REC, tuple(rec_rows_300[n]))).tau
    c_emp = max(taus[n] for n in range(2, 51))
    for n in range(2, 201):
        assert taus[n] <= 1.1 * c_emp, f"tau_rec({n}) = {taus[n]} exceeds 1.1 * {c_emp}"
    _report(f"PASS criterion 6: rec certificate (C_emp = {c_emp:.4f}, n <= 200)")


def test_criterion_7_srec_certificate_and_figures(tmp_path, capsys, srec_rows_150):
    started = time.monotonic()
    taus = {}
    for n in range(2, 151):
        taus[n] = sup_deviation(n, SREC, table=CountTable(n, SREC, tuple(srec_rows_150[n]))).tau
    c_emp = max(taus[n] for n in range(2, 51))
    for n in range(2, 151):
        assert taus[n] <= 1.1 * c_emp, f"tau_srec({n}) exceeds 1.1 * window max"
    assert taus[50] <= 1.1 * c_emp and taus[150] <= 1.1 * c_emp

    tau_path = tmp_path / "tau_srec.csv"
    assert main(["tau", "--stat", "srec", "--n-min", "2", "--n-max", "50",
                 "--output", str(tau_path)]) == 0
    lines = tau_path.read_text().splitlines()
    assert lines[0] == "n,sup_dev,tau,argmax_x" and len(lines) == 50

    for n in (50, 150):
        curve_path = tmp_path / f"psi_{n}.csv"
        assert main(["curve", "--stat", "srec", "--n", str(n),
                     "--output", str(curve_path)]) == 0
        rows = curve_path.read_text().splitlines()
        assert rows[0] == "x,psi_n,target"
        assert len(rows) == srec_max(n) - 1 + 1  # breakpoint samples plus header
    capsys.readouterr()
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f}s, budget 600s"
    _report(
        f"PASS criterion 7: srec certificate and figure data "
        f"(C~_emp = {c_emp:.4f}, n <= 150, {elapsed:.1f}s)"
    )


def test_criterion_8_saddle_point_certificates(rec_rows_300):
    assert abs(solve_u1(2, 1) - math.sqrt(2.0)) <= 1e-9

    for n in (50, 100, 200, 400):
        for tenth in range(1, 10):
            m = n * tenth // 10
            x = m / n
            u1 = solve_u1(n, m)
            lo = n * x * x / (6.0 * (4.0 / 3.0 - x))
            hi = n * (x / (1.0 - x) + 1.0 / n)
            assert lo <= u1 <= hi, f"u1 enclosure n={n}, x={x}"

    previous = None
    for n in (20, 40, 80, 160):
        exact_log = big_ln(rec_rows_300[n][n // 2])
        rel = abs(math.exp(temme_estimate(n, n // 2).log_estimate - exact_log) - 1.0)
        assert previous is None or rel < previous, f"estimate error grew at n={n}"
        previous = rel

    for x in (0.25, 0.5, 0.75):
        devs = []
        for n in (25, 50, 100, 200, 400):
            value = temme_estimate(n, math.floor(n * x)).log_estimate / (n * math.log(n))
            devs.append(abs(value - (1.0 - x)))
        assert all(b < a for a, b in zip(devs, devs[1:])), f"scaled trend broke at x={x}"
    _report("PASS criterion 8: saddle-point certificates (root, enclosure, both trends)")


def test_criterion_9_special_functions():
    for arg in range(1, 172):
        expected = 0.0 if arg == 1 else big_ln(math.factorial(arg - 1))
        assert abs(log_gamma(float(arg)) - expected) <= 1e-9, f"lnGamma({arg})"
    rng = random.Random(90125)
    for _ in range(100):
        x = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-10
        assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) <= 1e-10
    _report("PASS criterion 9: special functions (integer lnGamma, psi recurrences)")
