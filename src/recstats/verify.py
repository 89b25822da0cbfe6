"""
Cross-module invariant suites behind the ``verify`` CLI command.

Each check prints one PASS/FAIL line (or SKIP when its smallest
meaningful n exceeds the requested cap).  Ranges scale with ``max_n``
so the default stays a desk-speed smoke test; checks needing large n
for their statement (asymptotic trends, brackets holding only
eventually) skip below their thresholds instead of asserting vacuously.
All randomness is seeded, so a suite run is a pure function of its
arguments.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterable

from . import extremal, probabilities, scaling, tables, temme
from .perm import iter_uniform, lehmer_decode, lehmer_encode, records, sample_uniform
from .tables import REC, SREC

SUITES = ("core", "bounds", "scaling", "temme", "all")

_SEED = 20080828


class CheckFailure(AssertionError):
    pass


class CheckSkipped(Exception):
    """Raised by a check whose smallest meaningful n exceeds the cap."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------- core


def _check_lehmer_roundtrip(max_n: int) -> None:
    import itertools

    for n in range(1, min(max_n, 6) + 1):
        seen = set()
        for code in itertools.product(*(range(i) for i in range(1, n + 1))):
            p = lehmer_decode(code)
            _require(lehmer_encode(p) == code, f"roundtrip broke at {code}")
            seen.add(p.entries)
        _require(seen == set(itertools.permutations(range(1, n + 1))),
                 f"decode is not onto S_{n}")


def _check_records_vs_code_zeros(max_n: int) -> None:
    rng = random.Random(_SEED)
    for _ in range(200):
        n = rng.randint(1, max(2, max_n))
        p = sample_uniform(n, rng.randrange(2**32))
        code = lehmer_encode(p)
        zeros = tuple(i + 1 for i, r in enumerate(code) if r == 0)
        prof = records(p)
        _require(prof.positions == zeros, f"record positions != code zeros for {p}")
        _require(prof.rec == len(zeros) and prof.srec == sum(zeros), "rec/srec mismatch")


def _check_tables_vs_bruteforce(max_n: int) -> None:
    for n in range(1, min(max_n, 8) + 1):
        rec_bf, srec_bf = tables.brute_force_tables(n)
        _require(tables.rec_table(n).coeffs == rec_bf.coeffs, f"rec row differs at n={n}")
        _require(tables.srec_table(n).coeffs == srec_bf.coeffs, f"srec row differs at n={n}")


def _check_row_sums(max_n: int) -> None:
    for n, row in tables.iter_rec_rows(max_n):
        _require(sum(row) == math.factorial(n), f"rec row sum wrong at n={n}")
    for n, row in tables.iter_srec_rows(max_n):
        _require(sum(row) == math.factorial(n), f"srec row sum wrong at n={n}")


def _check_rec_row_vs_polynomial(max_n: int) -> None:
    # independent route: convolve (q+j) factors directly
    for n in range(1, min(max_n, 50) + 1):
        poly = [0, 1]
        for j in range(1, n):
            poly = [
                (poly[i] if i < len(poly) else 0) * j
                + (poly[i - 1] if 0 < i <= len(poly) else 0)
                for i in range(len(poly) + 1)
            ]
        row = tables.rec_table(n)
        _require(poly == [row.coeffs[k] for k in range(n + 1)],
                 f"polynomial product differs at n={n}")


def _check_srec_extremes(max_n: int) -> None:
    for n in range(3, max(max_n, 3) + 1):
        row = tables.srec_table(n).coeffs
        top = tables.srec_max(n)
        _require(row[1] == math.factorial(n - 1), f"C({n},1) wrong")
        _require(row[top] == 1, f"C({n},max) wrong")
        zeros = {k for k in range(1, top + 1) if row[k] == 0}
        _require(zeros == {2, top - 1}, f"zero set wrong at n={n}: {sorted(zeros)}")


def _check_record_frequencies(max_n: int) -> None:
    n = min(max(max_n, 4), 10)
    count = 20000
    hits = [0] * (n + 1)
    for p in iter_uniform(n, _SEED, count):
        for pos in records(p).positions:
            hits[pos] += 1
    bound = 4.0 / math.sqrt(count)
    for k in range(1, n + 1):
        _require(abs(hits[k] / count - 1.0 / k) <= bound,
                 f"record frequency at position {k} off by more than 4/sqrt(N)")


def _check_sampled_rec_distribution(max_n: int) -> None:
    if max_n < 4:
        raise CheckSkipped("needs n = 4")
    count = 100000
    freq = [0] * 5
    for p in iter_uniform(4, _SEED + 1, count):
        freq[records(p).rec] += 1
    for k, expected in enumerate((6, 11, 6, 1), start=1):
        p_k = expected / 24.0
        se = math.sqrt(p_k * (1 - p_k) / count)
        _require(abs(freq[k] / count - p_k) <= 3 * se,
                 f"empirical P(rec={k}) beyond 3 standard errors")


def _check_big_ln(max_n: int) -> None:
    _require(tables.big_ln(1) == 0.0, "ln 1 != 0")
    _require(abs(tables.big_ln(2**1000) - 1000 * math.log(2)) < 1e-9, "ln 2^1000 off")
    direct = math.fsum(math.log(j) for j in range(1, 101))
    got = tables.big_ln(math.factorial(100))
    _require(abs(got - direct) < 1e-9 * direct, "ln 100! off")


# -------------------------------------------------------------- bounds


def _check_rec_sum_identity(max_n: int) -> None:
    for n in range(1, min(max_n, 10) + 1):
        row = tables.rec_table(n)
        for k in range(1, n + 1):
            _require(
                probabilities.rec_prob_sum(n, k) == Fraction(row.coeffs[k], math.factorial(n)),
                f"rec sum formula differs at n={n}, k={k}",
            )


def _check_srec_sum_identity(max_n: int) -> None:
    for n in range(1, min(max_n, 10) + 1):
        row = tables.srec_table(n)
        for k in range(1, tables.srec_max(n) + 1):
            _require(
                probabilities.srec_prob_sum(n, k) == Fraction(row.coeffs[k], math.factorial(n)),
                f"srec sum formula differs at n={n}, k={k}",
            )


def _check_pattern_total(max_n: int) -> None:
    import itertools

    for n in range(1, min(max_n, 12) + 1):
        total = Fraction(0)
        for assignment in itertools.product("YN", repeat=n - 1):
            marks = dict(zip(range(2, n + 1), assignment))
            total += probabilities.pattern_probability(probabilities.PatternSpec(n, marks))
        _require(total == 1, f"pattern probabilities sum to {total} at n={n}")


def _check_pattern_terms(max_n: int) -> None:
    import itertools

    for n in range(2, min(max_n, 8) + 1):
        for size in range(0, n):
            total = Fraction(0)
            for chosen in itertools.combinations(range(2, n + 1), size):
                marks = {j: "Y" if j in chosen else "N" for j in range(2, n + 1)}
                total += probabilities.pattern_probability(probabilities.PatternSpec(n, marks))
            _require(total == probabilities.rec_prob_sum(n, size + 1),
                     f"pattern terms disagree with the rec sum at n={n}, k={size + 1}")


def _check_rec_bounds_bracket(max_n: int) -> None:
    for n in range(1, min(max_n, 30) + 1):
        row = tables.rec_table(n)
        fact_log = tables.big_ln(math.factorial(n))
        for k in range(1, n + 1):
            x = 1.0 if k == n else (k + 0.5) / n  # mid-cell, floors to k exactly
            lo, hi = probabilities.rec_prob_bounds(n, x)
            actual = tables.big_ln(row.coeffs[k]) - fact_log
            _require(lo - 1e-9 <= actual <= hi + 1e-9,
                     f"rec bracket fails at n={n}, k={k}")


def _check_srec_bounds_bracket(max_n: int) -> None:
    for n in range(1, min(max_n, 20) + 1):
        row = tables.srec_table(n)
        fact_log = tables.big_ln(math.factorial(n))
        top = tables.srec_max(n)
        for k in range(1, top + 1):
            if k == 2 or k == top - 1:
                continue
            lo, hi = probabilities.srec_prob_bounds(n, k)
            actual = tables.big_ln(row.coeffs[k]) - fact_log
            _require(lo - 1e-9 <= actual <= hi + 1e-9,
                     f"srec bracket fails at n={n}, k={k}")


def _check_min_product_vs_bruteforce(max_n: int) -> None:
    import itertools

    for n in range(1, min(max_n, 12) + 1):
        top = tables.srec_max(n)
        best: dict[int, tuple[int, tuple[int, ...]]] = {}
        for size in range(0, n):
            for chosen in itertools.combinations(range(2, n + 1), size):
                k = 1 + sum(chosen)
                product = math.prod(chosen)
                key = (product, (1,) + chosen)
                if k not in best or key < best[k]:
                    best[k] = key
        for k in range(1, top + 1):
            if k == 2 or k == top - 1:
                continue
            got = extremal.min_product(n, k)
            _require((got.m, got.witness) == best[k],
                     f"DP differs from brute force at n={n}, k={k}")


def _check_small_k_structure(max_n: int) -> None:
    for n in range(3, max(max_n, 3) + 1):
        for k in range(3, n + 1):
            got = extremal.min_product(n, k)
            _require(got.m == k - 1 and got.witness == (1, k - 1),
                     f"m(n,k) != k-1 at n={n}, k={k}")


def _check_i0_forms_agree(max_n: int) -> None:
    if max_n < 4:
        raise CheckSkipped("needs n >= 4")
    for n in range(4, max_n + 1):
        for k in range(n + 1, tables.srec_max(n) + 1):
            _require(extremal.i0_closed(n, k) == extremal.i0_greedy(n, k),
                     f"i0 forms differ at n={n}, k={k}")


def _check_gamma_squeeze(max_n: int) -> None:
    if max_n < 4:
        raise CheckSkipped("needs n >= 4")
    for n in range(4, min(max_n, 40) + 1):
        top = tables.srec_max(n)
        for k in range(n + 1, top + 1):
            if k == top - 1:
                continue
            bounds = extremal.gamma_bounds(n, k)
            log_m = tables.big_ln(extremal.min_product(n, k).m)
            _require(bounds.log_lower - 1e-9 <= log_m <= bounds.log_upper + 1e-9,
                     f"gamma squeeze fails at n={n}, k={k}")


def _check_i0_sqrt_distance(max_n: int) -> None:
    if max_n < 4:
        raise CheckSkipped("needs n >= 4")
    for n in range(4, max_n + 1):
        pairs = n * (n + 1)
        for k in range(n + 1, tables.srec_max(n)):
            i0 = extremal.i0_closed(n, k)
            x = 2 * k / pairs
            _require(abs(n - i0 - n * math.sqrt(1.0 - x)) <= 3.0,
                     f"|n - i0 - n sqrt(1-x)| > 3 at n={n}, k={k}")


def _check_srec_count_bounds(max_n: int) -> None:
    if max_n < 3:
        raise CheckSkipped("needs n >= 3")
    for n in range(3, min(max_n, 60) + 1):
        row = tables.srec_table(n)
        top = tables.srec_max(n)
        for k in range(3, top + 1):
            if k == top - 1 or (k > n and n < 4):
                continue
            lo, hi = extremal.srec_count_bounds(n, k)
            actual = tables.big_ln(row.coeffs[k])
            _require(lo - 1e-9 <= actual <= hi + 1e-9,
                     f"count bracket fails at n={n}, k={k}")


# ------------------------------------------------------------- scaling


def _check_psi_at_one(max_n: int) -> None:
    for n in range(2, max(max_n, 2) + 1):
        _require(scaling.fn_value(n, 1.0) == 1, f"f_{n}(1) != 1")
        _require(scaling.phin_value(n, 1.0) == 1, f"phi_{n}(1) != 1")


def _check_values_match_tables(max_n: int) -> None:
    # Breakpoints land as the nearest float: the step value must come
    # from the coefficient at k, or at k-1 when the float dipped below
    # the cut, and exactly from k whenever the quotient is representable.
    for n in range(2, max(max_n, 2) + 1):
        rec_row = tables.rec_table(n)
        for k in range(1, n + 1):
            x = k / n
            got = scaling.fn_value(n, x)
            allowed = {rec_row.coeffs[k], rec_row.coeffs[max(k - 1, 1)]}
            _require(got in allowed, f"fn_value off at n={n}, k={k}")
            if Fraction(x) == Fraction(k, n):
                _require(got == rec_row.coeffs[k], f"fn_value misses exact cut at n={n}, k={k}")
        srec_row = tables.srec_table(n)
        top = tables.srec_max(n)
        for k in range(4, top - 2):
            x = 2 * k / (n * (n + 1))
            got = scaling.phin_value(n, x)
            allowed = {srec_row.coeffs[k], srec_row.coeffs[k - 1]}
            _require(got in allowed, f"phin_value off at n={n}, k={k}")
            if Fraction(x) == Fraction(k, top):
                _require(got == srec_row.coeffs[k], f"phin_value misses exact cut at n={n}, k={k}")


def _check_segment_interiors(max_n: int) -> None:
    rng = random.Random(_SEED + 2)
    for stat in (REC, SREC):
        for n in range(2, max(max_n, 2) + 1):
            report = scaling.sup_deviation(n, stat)
            row = scaling._row_for(n, stat, None)
            segments = scaling._segments(n, stat, row)
            for _ in range(10):
                x_lo, x_hi, value = segments[rng.randrange(len(segments))]
                y = tables.big_ln(value) / (n * math.log(n))
                end_dev = max(
                    abs(y - scaling.target_value(stat, x_lo)),
                    abs(y - scaling.target_value(stat, x_hi)),
                )
                for _ in range(20):
                    x = rng.uniform(x_lo, x_hi)
                    _require(
                        abs(y - scaling.target_value(stat, x)) <= end_dev + 1e-12,
                        f"interior deviation exceeds endpoints at n={n}",
                    )
                _require(end_dev <= report.sup_dev + 1e-12, "segment exceeds reported sup")


def _tau_certificate(stat: str, max_n: int) -> None:
    window_hi = min(max_n, 50)
    reports = scaling.tau_series(stat, 2, max_n)
    taus = {r.n: r.tau for r in reports}
    c_emp = max(taus[n] for n in range(2, window_hi + 1))
    for n in range(2, max_n + 1):
        _require(taus[n] <= 1.1 * c_emp, f"tau({n}) breaks the 1.1x window bound")


def _check_tau_bounded_rec(max_n: int) -> None:
    _tau_certificate(REC, max(max_n, 2))


def _check_tau_bounded_srec(max_n: int) -> None:
    _tau_certificate(SREC, min(max(max_n, 2), 150))


# --------------------------------------------------------------- temme


def _check_u1_algebraic(max_n: int) -> None:
    _require(abs(temme.solve_u1(2, 1) - math.sqrt(2.0)) < 1e-9, "u1(2,1) != sqrt(2)")


def _check_solver_residuals(max_n: int) -> None:
    for n in range(2, max(max_n, 2) + 1):
        for m in range(1, n):
            u1 = temme.solve_u1(n, m)
            residual = abs(temme.phi_prime(u1, n, m))
            _require(residual <= 1e-12 * m / u1,
                     f"residual contract broken at n={n}, m={m}")


def _check_phi_prime_vs_direct(max_n: int) -> None:
    rng = random.Random(_SEED + 3)
    for n in (5, 50, 500, 2000):
        for _ in range(20):
            m = rng.randint(1, n - 1)
            u = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
            fast = temme.phi_prime(u, n, m)
            slow = temme.phi_prime_direct(u, n, m)
            _require(abs(fast - slow) <= 1e-9 * max(1.0, abs(slow)),
                     f"digamma and direct phi' differ at n={n}, u={u}")


def _check_special_function_identities(max_n: int) -> None:
    rng = random.Random(_SEED + 4)
    for _ in range(100):
        x = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        _require(abs(temme.digamma(x + 1.0) - temme.digamma(x) - 1.0 / x) <= 1e-10,
                 f"digamma recurrence off at x={x}")
        _require(abs(temme.trigamma(x + 1.0) - temme.trigamma(x) + 1.0 / (x * x)) <= 1e-10,
                 f"trigamma recurrence off at x={x}")
    _require(abs(temme.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-12, "lnGamma(1/2) off")
    _require(abs(temme.log_gamma(1.0)) < 1e-12, "lnGamma(1) not ~0")
    for arg in range(2, 172):
        _require(
            abs(temme.log_gamma(float(arg)) - tables.big_ln(math.factorial(arg - 1))) <= 1e-9,
            f"lnGamma({arg}) differs from the factorial log",
        )


def _check_u1_enclosure(max_n: int) -> None:
    if max_n < 50:
        raise CheckSkipped("the u1/n enclosure is asymptotic; needs n >= 50")
    for n in (50, 100, 200, 400):
        if n > max_n:
            continue
        for tenth in range(1, 10):
            m = n * tenth // 10
            x = m / n
            u1 = temme.solve_u1(n, m)
            lo = n * x * x / (6.0 * (4.0 / 3.0 - x))
            hi = n * (x / (1.0 - x) + 1.0 / n)
            _require(lo <= u1 <= hi, f"u1 enclosure fails at n={n}, x={x}")


def _check_estimate_trend(max_n: int) -> None:
    if max_n < 160:
        raise CheckSkipped("trend check spans n = 20..160")
    prev = None
    for n in (20, 40, 80, 160):
        m = n // 2
        exact_log = tables.big_ln(tables.rec_count(n, m))
        est = temme.temme_estimate(n, m)
        rel = abs(math.exp(est.log_estimate - exact_log) - 1.0)
        _require(prev is None or rel < prev, f"estimate error did not shrink at n={n}")
        prev = rel


def _check_scaled_limit_trend(max_n: int) -> None:
    if max_n < 400:
        raise CheckSkipped("trend check spans n = 25..400")
    for x in (0.25, 0.5, 0.75):
        devs = [
            abs(v - (1.0 - x))
            for _, v in temme.scaled_limit_table(x, (25, 50, 100, 200, 400))
        ]
        _require(all(b < a for a, b in zip(devs, devs[1:])),
                 f"scaled-limit deviation not decreasing at x={x}")


_CHECKS: dict[str, list[tuple[str, Callable[[int], None]]]] = {
    "core": [
        ("lehmer roundtrip is a bijection (exhaustive)", _check_lehmer_roundtrip),
        ("record positions equal code zeros", _check_records_vs_code_zeros),
        ("tables match brute-force enumeration", _check_tables_vs_bruteforce),
        ("row sums equal n!", _check_row_sums),
        ("rec rows equal direct polynomial products", _check_rec_row_vs_polynomial),
        ("srec extremes and zero positions", _check_srec_extremes),
        ("sampled record frequencies are 1/k", _check_record_frequencies),
        ("sampled rec distribution matches c(4,k)/24", _check_sampled_rec_distribution),
        ("big-integer natural log", _check_big_ln),
    ],
    "bounds": [
        ("rec sum formula equals c(n,k)/n!", _check_rec_sum_identity),
        ("srec sum formula equals C(n,k)/n!", _check_srec_sum_identity),
        ("pattern probabilities sum to 1", _check_pattern_total),
        ("full patterns reproduce the rec sum terms", _check_pattern_terms),
        ("rec probability bracket", _check_rec_bounds_bracket),
        ("srec probability bracket", _check_srec_bounds_bracket),
        ("minimum product matches brute force", _check_min_product_vs_bruteforce),
        ("m(n,k) = k-1 with witness (1, k-1) for k <= n", _check_small_k_structure),
        ("closed-form i0 equals greedy i0", _check_i0_forms_agree),
        ("Gamma squeeze brackets ln m(n,k)", _check_gamma_squeeze),
        ("|n - i0 - n sqrt(1-x)| <= 3", _check_i0_sqrt_distance),
        ("count bounds bracket ln C(n,k)", _check_srec_count_bounds),
    ],
    "scaling": [
        ("scaled curves vanish at x = 1", _check_psi_at_one),
        ("step values match table lookups", _check_values_match_tables),
        ("interior deviation below endpoint deviation", _check_segment_interiors),
        ("tau series bounded (rec)", _check_tau_bounded_rec),
        ("tau series bounded (srec)", _check_tau_bounded_srec),
    ],
    "temme": [
        ("u1(2,1) is sqrt(2)", _check_u1_algebraic),
        ("solver residual within 1e-12 m/u", _check_solver_residuals),
        ("telescoped phi' agrees with direct sums", _check_phi_prime_vs_direct),
        ("special function identities", _check_special_function_identities),
        ("u1/n enclosure for large n", _check_u1_enclosure),
        ("estimate error shrinks against exact counts", _check_estimate_trend),
        ("scaled limit approaches 1 - x", _check_scaled_limit_trend),
    ],
}


def run_suite(suite: str, max_n: int = 8, emit: Callable[[str], None] = print) -> bool:
    """Run one suite (or ``all``); returns True when nothing failed."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if max_n < 2:
        raise ValueError("max-n must be >= 2")
    names: Iterable[str] = _CHECKS if suite == "all" else (suite,)
    ok = True
    for group in names:
        for label, check in _CHECKS[group]:
            try:
                check(max_n)
            except CheckSkipped as reason:
                emit(f"SKIP {group}: {label} ({reason})")
            except CheckFailure as failure:
                emit(f"FAIL {group}: {label}: {failure}")
                ok = False
            else:
                emit(f"PASS {group}: {label}")
    return ok
