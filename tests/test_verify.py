"""
Planted defects: a check of the shared catalogue must catch a production
function that is wrong at one input, and name that input.

Both the ``verify`` command and the acceptance tests run these checks, so
a check that went vacuous would pass both gates; these tests keep it
honest.
"""

import pytest

from recstats import extremal, perm, probabilities, scaling, tables, verify
from recstats.tables import REC, SREC, CountTable
from recstats.verify import CheckFailure


def wrong_at(fn, key, change):
    """fn, except that a call whose leading arguments equal ``key`` returns change(result)."""

    def planted(*args):
        result = fn(*args)
        return change(result) if args[: len(key)] == key else result

    return planted


def test_tables_vs_bruteforce(monkeypatch):
    def bump_last(t):
        return CountTable(t.n, t.kind, t.coeffs[:-1] + (t.coeffs[-1] + 1,))

    monkeypatch.setattr(tables, "srec_table", wrong_at(tables.srec_table, (6,), bump_last))
    with pytest.raises(CheckFailure, match=r"srec row differs at n=6$"):
        verify.check_tables_vs_bruteforce(range(1, 9))


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
        verify.check_segment_interiors(*verify._both_sweeps(30), 7)
