"""
Planted defects: a check of the shared catalogue must catch a production
function that is wrong at one input, and name that input.

The ``verify`` command, the acceptance tests and the unit tests all run
these checks, so a check that went vacuous would pass every gate; these
tests keep it honest.  ``PLANTED`` maps every check of ``verify._CHECKS``
to its test, and a check without one fails the last test here.
"""

import math
from fractions import Fraction

import pytest

from recstats import extremal, perm, probabilities, scaling, tables, temme, verify
from recstats.tables import REC, SREC, CountTable
from recstats.verify import CheckFailure


def wrong_at(fn, key, change):
    """fn, except that a call whose leading arguments equal ``key`` returns change(result)."""

    def planted(*args):
        result = fn(*args)
        return change(result) if args[: len(key)] == key else result

    return planted


def bump(k):
    """A change for ``wrong_at``: the count table with 1 added at k."""
    return lambda t: CountTable(t.n, t.kind, t.coeffs[:k] + (t.coeffs[k] + 1,) + t.coeffs[k + 1:])


def test_lehmer_roundtrip(monkeypatch):
    monkeypatch.setattr(verify, "lehmer_decode", wrong_at(
        verify.lehmer_decode, ((0, 1, 0, 2),), lambda p: perm.Permutation((1, 2, 3, 4))))
    with pytest.raises(CheckFailure, match=r"^roundtrip broke at \(0, 1, 0, 2\)$"):
        verify.check_lehmer_roundtrip(range(1, 7))


def test_records_vs_code_zeros(monkeypatch):
    # the 57th permutation drawn loses its last record
    drawn = []

    def planted(p):
        drawn.append(p)
        profile = perm.records(p)
        return perm.RecordProfile(profile.positions[:-1]) if len(drawn) == 57 else profile

    monkeypatch.setattr(verify, "records", planted)
    with pytest.raises(CheckFailure, match=r"^record positions != code zeros for ") as info:
        verify.check_records_vs_code_zeros(8, verify._SEED)
    assert len(drawn) == 57 and str(info.value).endswith(f" for {drawn[-1]}")


def test_tables_vs_bruteforce(monkeypatch):
    monkeypatch.setattr(tables, "srec_table", wrong_at(tables.srec_table, (6,), bump(21)))
    with pytest.raises(CheckFailure, match=r"srec row differs at n=6$"):
        verify.check_tables_vs_bruteforce(range(1, 9))


def test_row_sums():
    srec_rows = ((n, [*row[:12], row[12] + 1, *row[13:]] if n == 7 else row)
                 for n, row in tables.iter_srec_rows(10))
    with pytest.raises(CheckFailure, match=r"^srec row sum wrong at n=7$"):
        verify.check_row_sums(tables.iter_rec_rows(10), srec_rows)


def test_rec_row_vs_polynomial(monkeypatch):
    monkeypatch.setattr(tables, "rec_table", wrong_at(tables.rec_table, (9,), bump(4)))
    with pytest.raises(CheckFailure, match=r"^polynomial product differs at n=9$"):
        verify.check_rec_row_vs_polynomial(range(1, 51))


def test_big_ln(monkeypatch):
    # 1e-6 off ln 100! = 363.7..., about 2.7e-9 of it
    monkeypatch.setattr(tables, "big_ln", wrong_at(
        tables.big_ln, (math.factorial(100),), lambda v: v + 1e-6))
    with pytest.raises(CheckFailure, match=r"^ln 100! off$"):
        verify.check_big_ln()


def test_rec_sum_identity(monkeypatch):
    monkeypatch.setattr(tables, "rec_table", wrong_at(tables.rec_table, (7,), bump(3)))
    with pytest.raises(CheckFailure, match=r"^rec sum formula differs at n=7, k=3$"):
        verify.check_rec_sum_identity(range(1, 11))


def test_srec_sum_identity(monkeypatch):
    monkeypatch.setattr(tables, "srec_table", wrong_at(tables.srec_table, (8,), bump(11)))
    with pytest.raises(CheckFailure, match=r"^srec sum formula differs at n=8, k=11$"):
        verify.check_srec_sum_identity(range(1, 11))


# records at {1, 2, 5} of n = 6: one term of the rec sum at k = 3
PATTERN = probabilities.PatternSpec(6, {2: "Y", 3: "N", 4: "N", 5: "Y", 6: "N"})


def test_pattern_total(monkeypatch):
    monkeypatch.setattr(probabilities, "pattern_probability", wrong_at(
        probabilities.pattern_probability, (PATTERN,), lambda v: v + Fraction(1, 720)))
    with pytest.raises(CheckFailure, match=r"^pattern probabilities sum to 721/720 at n=6$"):
        verify.check_pattern_total(range(1, 13))


def test_pattern_terms(monkeypatch):
    monkeypatch.setattr(probabilities, "pattern_probability", wrong_at(
        probabilities.pattern_probability, (PATTERN,), lambda v: v + Fraction(1, 720)))
    with pytest.raises(CheckFailure, match=r"^pattern terms disagree with the rec sum at n=6, k=3$"):
        verify.check_pattern_terms(range(2, 9))


def test_min_product_vs_bruteforce(monkeypatch):
    monkeypatch.setattr(extremal, "min_product", wrong_at(
        extremal.min_product, (9, 20), lambda r: r._replace(m=r.m + 1)))
    with pytest.raises(CheckFailure, match=r"at n=9, k=20$"):
        verify.check_min_product_vs_bruteforce(range(1, 13))


def test_small_k_structure(monkeypatch):
    monkeypatch.setattr(extremal, "min_product", wrong_at(
        extremal.min_product, (20, 7), lambda r: r._replace(m=r.m + 1)))
    with pytest.raises(CheckFailure, match=r"^m\(n,k\) != k-1 at n=20, k=7$"):
        verify.check_small_k_structure(range(3, 41))


def test_gamma_squeeze(monkeypatch):
    # the lower end Gamma(n+1)/Gamma(1) is exactly m(10, 55) = 10!
    monkeypatch.setattr(extremal, "min_product", wrong_at(
        extremal.min_product, (10, 55), lambda r: r._replace(m=r.m - 1)))
    with pytest.raises(CheckFailure, match=r"^gamma squeeze fails at n=10, k=55$"):
        verify.check_gamma_squeeze(range(4, 41), 1e-9)


def test_srec_bracket(monkeypatch):
    # the upper end 2^n/m falls below the old lower end 1/(n m)
    monkeypatch.setattr(extremal, "min_product", wrong_at(
        extremal.min_product, (12, 40), lambda r: r._replace(m=r.m * 4**r.n)))
    with pytest.raises(CheckFailure, match=r"^srec bracket fails at n=12, k=40$"):
        verify.check_srec_bounds_bracket(tables.iter_srec_rows(20), 1e-9)


def test_closed_vs_greedy_i0(monkeypatch):
    monkeypatch.setattr(extremal, "i0_closed",
                        wrong_at(extremal.i0_closed, (30, 100), lambda i: i + 1))
    with pytest.raises(CheckFailure, match=r"at n=30, k=100$"):
        verify.check_i0_forms_agree(range(4, 61))


def test_i0_sqrt_distance(monkeypatch):
    # n - i0 - n sqrt(1 - x) lies in [-3, 3], so 7 more on i0 leaves it
    monkeypatch.setattr(extremal, "i0_closed",
                        wrong_at(extremal.i0_closed, (30, 100), lambda i: i + 7))
    with pytest.raises(CheckFailure, match=r"^\|n - i0 - n sqrt\(1-x\)\| > 3 at n=30, k=100$"):
        verify.check_i0_sqrt_distance(range(4, 61))


def test_srec_count_bounds(monkeypatch):
    # a bracket wholly above the old upper end
    monkeypatch.setattr(extremal, "srec_count_bounds", wrong_at(
        extremal.srec_count_bounds, (12, 40), lambda b: (b[1] + 1.0, b[1] + 2.0)))
    with pytest.raises(CheckFailure, match=r"^count bracket fails at n=12, k=40$"):
        verify.check_srec_count_bounds(tables.iter_srec_rows(20), 1e-9)


def test_psi_at_one(monkeypatch):
    # index top - 1 holds the zero count C(9, 44)
    monkeypatch.setattr(scaling, "_step_index", wrong_at(
        scaling._step_index, (9, SREC, 1.0), lambda i: i - 1))
    with pytest.raises(CheckFailure, match=r"^phi_9\(1\) != 1$"):
        verify.check_psi_at_one(*verify._both_sweeps(20))


def test_tau_window(monkeypatch):
    # past the window n = 2..50, so the planted tau cannot raise C_emp
    monkeypatch.setattr(scaling, "_sup_from_row", wrong_at(
        scaling._sup_from_row, (55,), lambda r: r._replace(tau=2 * r.tau)))
    with pytest.raises(CheckFailure, match=r"tau\(55\)"):
        verify.check_tau_window(scaling.tau_series(REC, 2, 60), 50)


def test_rec_bracket(monkeypatch):
    # an upper end below the lower one, so c(12, 5)/12! cannot sit inside
    monkeypatch.setattr(probabilities, "rec_prob_bounds", wrong_at(
        probabilities.rec_prob_bounds, (12, 5.5 / 12), lambda b: (b[0], b[0] - 1.0)))
    with pytest.raises(CheckFailure, match=r"at n=12, k=5$"):
        verify.check_rec_bounds_bracket(range(1, 31), 1e-9)


def every_fifth_identity(n, seed, count):
    """perm.iter_uniform, except that every fifth draw is the identity (all records)."""
    identity = perm.Permutation(tuple(range(1, n + 1)))
    for i, p in enumerate(perm.iter_uniform(n, seed, count)):
        yield identity if i % 5 == 4 else p


def test_record_frequencies(monkeypatch):
    # position 2 is a record in 0.8/2 + 0.2 = 0.6 of the draws, not 1/2
    monkeypatch.setattr(verify, "iter_uniform", every_fifth_identity)
    with pytest.raises(CheckFailure, match=r"^record frequency at position 2 off"):
        verify.check_record_frequencies(10, verify._SEED)


def test_sampled_rec_distribution(monkeypatch):
    # P(rec = 1) drops to 0.8 * 6/24 = 0.2 from 0.25
    monkeypatch.setattr(verify, "iter_uniform", every_fifth_identity)
    with pytest.raises(CheckFailure, match=r"^empirical P\(rec=1\) beyond 3 standard errors$"):
        verify.check_sampled_rec_distribution(verify._SEED + 1)


def test_sampled_rec_distribution_through_the_memo(monkeypatch):
    # n = 4 with 100000 draws decodes each code once; if code (0, 1, 2, 3),
    # one of the six with a single record, decodes to the identity, then
    # P(rec = 1) drops by 1/24 to 5/24, about 30 standard errors
    decode = perm._decode
    calls = []

    def planted(code, values):
        calls.append(tuple(code))
        if tuple(code) == (0, 1, 2, 3):
            return perm.Permutation(values)
        return decode(code, values)

    monkeypatch.setattr(perm, "_decode", planted)
    with pytest.raises(CheckFailure, match=r"^empirical P\(rec=1\) beyond 3 standard errors$"):
        verify.check_sampled_rec_distribution(verify._SEED + 1)
    assert len(calls) == len(set(calls)) == 24


def test_verify_command_reports_the_planted_input(monkeypatch):
    monkeypatch.setattr(extremal, "i0_closed",
                        wrong_at(extremal.i0_closed, (10, 20), lambda i: i + 1))
    lines = []
    assert not verify.run_suite("bounds", 12, emit=lines.append)
    assert "FAIL bounds: closed-form i0 equals greedy i0: i0 forms differ at n=10, k=20" in lines


@pytest.mark.parametrize("kind, n, k", [(REC, 12, 5), (SREC, 9, 20)])
def test_step_values_match_tables(monkeypatch, kind, n, k):
    top = n if kind == REC else tables.srec_max(n)
    monkeypatch.setattr(scaling, "_step_index", wrong_at(
        scaling._step_index, (n, kind, k / top), lambda i: i + 2))
    with pytest.raises(CheckFailure, match=rf"^{kind} step value off at n={n}, k={k}$"):
        verify.check_values_match_tables(*verify._both_sweeps(20))


def test_srec_extremes():
    rows = [(n, list(row)) for n, row in tables.iter_srec_rows(10)][2:]  # n = 3..10
    rows[4][1][-1] += 1  # C(7, top)
    with pytest.raises(CheckFailure, match=r"^C\(7,max\) wrong$"):
        verify.check_srec_extremes(rows)


def test_segment_interiors(monkeypatch):
    monkeypatch.setattr(scaling, "_sup_from_row", wrong_at(
        scaling._sup_from_row, (17, SREC), lambda r: r._replace(sup_dev=0.0)))
    with pytest.raises(CheckFailure, match=r"^srec segment exceeds reported sup at n=17$"):
        verify.check_segment_interiors(range(2, 31), 7)


def test_u1_algebraic(monkeypatch):
    monkeypatch.setattr(temme, "solve_u1", wrong_at(temme.solve_u1, (2, 1), lambda u: u + 2e-9))
    with pytest.raises(CheckFailure, match=r"^u1\(2,1\) != sqrt\(2\)$"):
        verify.check_u1_algebraic()


def test_solver_residuals(monkeypatch):
    monkeypatch.setattr(temme, "solve_u1", wrong_at(
        temme.solve_u1, (15, 4), lambda u: u * (1 + 1e-6)))
    with pytest.raises(CheckFailure, match=r"^residual contract broken at n=15, m=4$"):
        verify.check_solver_residuals(range(2, 25))


def test_phi_prime_vs_direct(monkeypatch):
    # wrong at every u for n = 500, by 1e-6 of max(1, |phi'|)
    phi_prime = temme.phi_prime

    def planted(u, n, m):
        value = phi_prime(u, n, m)
        return value + 1e-6 * max(1.0, abs(value)) if n == 500 else value

    monkeypatch.setattr(temme, "phi_prime", planted)
    with pytest.raises(CheckFailure, match=r"^digamma and direct phi' differ at n=500, u="):
        verify.check_phi_prime_vs_direct((5, 50, 500, 2000), verify._SEED + 3)


def test_special_functions(monkeypatch):
    monkeypatch.setattr(temme, "log_gamma",
                        wrong_at(temme.log_gamma, (100.0,), lambda v: v + 1e-8))
    with pytest.raises(CheckFailure, match=r"^lnGamma\(100\) differs from the factorial log$"):
        verify.check_special_functions(verify._SEED + 4)


def test_u1_enclosure(monkeypatch):
    monkeypatch.setattr(temme, "solve_u1", wrong_at(temme.solve_u1, (100, 30), lambda u: -u))
    with pytest.raises(CheckFailure, match=r"^u1 enclosure fails at n=100, x=0.3$"):
        verify.check_u1_enclosure((50, 100, 200, 400))


def test_estimate_trend(monkeypatch):
    # the estimate at n = 80 off by a factor e
    monkeypatch.setattr(temme, "temme_estimate", wrong_at(
        temme.temme_estimate, (80, 40), lambda e: e._replace(log_estimate=e.log_estimate + 1.0)))
    with pytest.raises(CheckFailure, match=r"^estimate error did not shrink at n=80$"):
        verify.check_estimate_trend((20, 40, 80, 160), tables.rec_count)


def test_scaled_limit_trend(monkeypatch):
    # the scaled value at n = 100, x = 0.5 raised by 1
    monkeypatch.setattr(temme, "temme_estimate", wrong_at(
        temme.temme_estimate, (100, 50),
        lambda e: e._replace(log_estimate=e.log_estimate + 100 * math.log(100))))
    with pytest.raises(CheckFailure, match=r"^scaled-limit deviation not decreasing at x=0.5$"):
        verify.check_scaled_limit_trend((0.25, 0.5, 0.75), (25, 50, 100, 200, 400))


# each check of the catalogue and the test above that plants its defect
PLANTED = {
    verify.check_lehmer_roundtrip: test_lehmer_roundtrip,
    verify.check_records_vs_code_zeros: test_records_vs_code_zeros,
    verify.check_tables_vs_bruteforce: test_tables_vs_bruteforce,
    verify.check_row_sums: test_row_sums,
    verify.check_rec_row_vs_polynomial: test_rec_row_vs_polynomial,
    verify.check_srec_extremes: test_srec_extremes,
    verify.check_record_frequencies: test_record_frequencies,
    verify.check_sampled_rec_distribution: test_sampled_rec_distribution,
    verify.check_big_ln: test_big_ln,
    verify.check_rec_sum_identity: test_rec_sum_identity,
    verify.check_srec_sum_identity: test_srec_sum_identity,
    verify.check_pattern_total: test_pattern_total,
    verify.check_pattern_terms: test_pattern_terms,
    verify.check_rec_bounds_bracket: test_rec_bracket,
    verify.check_srec_bounds_bracket: test_srec_bracket,
    verify.check_min_product_vs_bruteforce: test_min_product_vs_bruteforce,
    verify.check_small_k_structure: test_small_k_structure,
    verify.check_i0_forms_agree: test_closed_vs_greedy_i0,
    verify.check_gamma_squeeze: test_gamma_squeeze,
    verify.check_i0_sqrt_distance: test_i0_sqrt_distance,
    verify.check_srec_count_bounds: test_srec_count_bounds,
    verify.check_psi_at_one: test_psi_at_one,
    verify.check_values_match_tables: test_step_values_match_tables,
    verify.check_segment_interiors: test_segment_interiors,
    verify.check_tau_window: test_tau_window,
    verify.check_u1_algebraic: test_u1_algebraic,
    verify.check_solver_residuals: test_solver_residuals,
    verify.check_phi_prime_vs_direct: test_phi_prime_vs_direct,
    verify.check_special_functions: test_special_functions,
    verify.check_u1_enclosure: test_u1_enclosure,
    verify.check_estimate_trend: test_estimate_trend,
    verify.check_scaled_limit_trend: test_scaled_limit_trend,
}


def test_every_check_has_a_planted_defect():
    catalogue = {check for group in verify._CHECKS.values() for _, check, _ in group}
    assert set(PLANTED) == catalogue
