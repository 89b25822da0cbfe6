"""
Acceptance gate: the release criteria, each at its stated tolerance.

Every test prints one PASS line on success (pytest shows it with -v -s
or in failure reports).  The ranges, seeds and tolerances are pinned
here, not configurable; the checking logic lives in
:mod:`recstats.verify`, whose check functions the ``verify`` command
runs with ranges scaled to ``--max-n``.
"""

import time

from recstats import Permutation, lehmer_encode, records, srec_max, tau_series
from recstats.cli import main
from recstats.tables import REC, SREC
from recstats.verify import (
    check_estimate_trend,
    check_gamma_squeeze,
    check_i0_forms_agree,
    check_i0_sqrt_distance,
    check_min_product_vs_bruteforce,
    check_pattern_total,
    check_rec_bounds_bracket,
    check_rec_sum_identity,
    check_row_sums,
    check_scaled_limit_trend,
    check_small_k_structure,
    check_special_functions,
    check_srec_bounds_bracket,
    check_srec_count_bounds,
    check_srec_sum_identity,
    check_tables_vs_bruteforce,
    check_tau_window,
    check_u1_algebraic,
    check_u1_enclosure,
)

SLACK = 1e-9


def _report(line: str) -> None:
    print(line)


def test_criterion_1_table_oracle_equivalence(rec_rows_300, srec_rows_150):
    started = time.monotonic()
    check_tables_vs_bruteforce(range(1, 9))
    check_row_sums(rec_rows_300.items(), srec_rows_150.items())
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
    check_rec_sum_identity(range(1, 11))
    check_srec_sum_identity(range(1, 11))
    check_pattern_total(range(1, 13))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s, budget 120s"
    _report(f"PASS criterion 3: exact formula identities ({elapsed:.1f}s)")


def test_criterion_4_probability_and_count_bounds(srec_rows_150):
    check_rec_bounds_bracket(range(1, 31), SLACK)
    srec_rows_60 = [(n, srec_rows_150[n]) for n in range(1, 61)]
    check_srec_bounds_bracket(srec_rows_60, SLACK)
    check_srec_count_bounds(srec_rows_60, SLACK)
    _report("PASS criterion 4: probability and count brackets (n <= 30 rec, n <= 60 srec)")


def test_criterion_5_extremal_structure():
    started = time.monotonic()
    check_min_product_vs_bruteforce(range(1, 16))
    check_small_k_structure(range(3, 61))
    check_i0_forms_agree(range(4, 201))
    check_gamma_squeeze(range(4, 41), SLACK)
    check_i0_sqrt_distance(range(4, 501))
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget 300s"
    _report(f"PASS criterion 5: extremal structure ({elapsed:.1f}s)")


def test_criterion_6_rec_uniform_convergence():
    c_emp = check_tau_window(tau_series(REC, 2, 200), 50)
    _report(f"PASS criterion 6: rec certificate (C_emp = {c_emp:.4f}, n <= 200)")


def test_criterion_7_srec_certificate_and_figures(tmp_path, capsys):
    started = time.monotonic()
    c_emp = check_tau_window(tau_series(SREC, 2, 150), 50)

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
    check_u1_algebraic()
    check_u1_enclosure((50, 100, 200, 400))
    check_estimate_trend((20, 40, 80, 160), lambda n, m: rec_rows_300[n][m])
    check_scaled_limit_trend((0.25, 0.5, 0.75), (25, 50, 100, 200, 400))
    _report("PASS criterion 8: saddle-point certificates (root, enclosure, both trends)")


def test_criterion_9_special_functions():
    check_special_functions(90125)
    _report("PASS criterion 9: special functions (integer lnGamma, psi recurrences)")
