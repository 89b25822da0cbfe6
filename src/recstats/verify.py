"""
The invariant catalogue: one check function per property, run by two gates.

Every check takes its ranges as arguments, and where it needs them its
seed, its tolerance or the count rows it reads, and raises CheckFailure
at the first input where a comparison fails.  The ``verify`` CLI
command runs the checks through ``_CHECKS``, which maps ``--max-n`` to
each check's arguments.  The acceptance tests in
``tests/test_acceptance.py`` call the same functions with the ranges
and tolerances pinned there, and a unit test that needs an invariant
at its own inputs calls the check too: each comparison is written only
here.  Each check has a planted-defect test in ``tests/test_verify.py``,
which makes a production function wrong at one input and expects the
check to fail there and name it.  The oracles the checks compare
against live in :mod:`recstats.oracles`.

Each check prints one PASS/FAIL line (or SKIP when its smallest
meaningful n exceeds the requested cap).  Ranges scale with ``max_n``
so the default stays a desk-speed smoke test; checks needing large n
for their statement (asymptotic trends, brackets holding only
eventually) skip below their thresholds instead of asserting vacuously.
All randomness is seeded, so a suite run is a pure function of its
arguments.  Comparisons are written ``if not ...: raise`` rather than
``assert``, which ``python -O`` strips, and a passing comparison formats
no message.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import extremal, oracles, probabilities, scaling, tables, temme
from .perm import (
    iter_uniform, lehmer_decode, lehmer_encode, record_positions, records, sample_uniform,
)
from .tables import REC, SREC

SUITES = ("core", "bounds", "scaling", "temme", "all")

_SEED = 20080828
# log-domain slack of the brackets
_SLACK = 1e-9

# (n, dense count row indexed by k), as the row iterators of tables yield them
Rows = Iterable[tuple[int, Sequence[int]]]


def _feasible_ks(n: int) -> list[int]:
    """Every k in [1, n(n+1)/2] but the two with count zero."""
    top = tables.srec_max(n)
    return [k for k in range(1, top + 1) if k != 2 and k != top - 1]


class CheckFailure(AssertionError):
    pass


class CheckSkipped(Exception):
    """Raised when a check's smallest meaningful n exceeds the cap."""


# ---------------------------------------------------------------- core


def check_lehmer_roundtrip(ns: Iterable[int]) -> None:
    for n in ns:
        seen = set()
        for code in itertools.product(*(range(i) for i in range(1, n + 1))):
            p = lehmer_decode(code)
            if not lehmer_encode(p) == code:
                raise CheckFailure(f"roundtrip broke at {code}")
            seen.add(p.entries)
        if not seen == set(itertools.permutations(range(1, n + 1))):
            raise CheckFailure(f"decode is not onto S_{n}")


def check_records_vs_code_zeros(n_max: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, n_max)
        p = sample_uniform(n, rng.randrange(2**32))
        code = lehmer_encode(p)
        zeros = tuple(i + 1 for i, r in enumerate(code) if r == 0)
        prof = records(p)
        if not prof.positions == zeros:
            raise CheckFailure(f"record positions != code zeros for {p}")
        if not (prof.rec == len(zeros) and prof.srec == sum(zeros)):
            raise CheckFailure("rec/srec mismatch")


def check_tables_vs_bruteforce(ns: Iterable[int]) -> None:
    for n in ns:
        rec_bf, srec_bf = oracles.brute_force_tables(n)
        if not tables.rec_table(n).coeffs == rec_bf.coeffs:
            raise CheckFailure(f"rec row differs at n={n}")
        if not tables.srec_table(n).coeffs == srec_bf.coeffs:
            raise CheckFailure(f"srec row differs at n={n}")


def check_row_sums(rec_rows: Rows, srec_rows: Rows) -> None:
    for kind, rows in ((REC, rec_rows), (SREC, srec_rows)):
        for n, row in rows:
            if not sum(row) == math.factorial(n):
                raise CheckFailure(f"{kind} row sum wrong at n={n}")


def check_rec_row_vs_polynomial(ns: Iterable[int]) -> None:
    # independent route: convolve (q+j) factors directly
    for n in ns:
        poly = [0, 1]
        for j in range(1, n):
            poly = [
                (poly[i] if i < len(poly) else 0) * j
                + (poly[i - 1] if 0 < i <= len(poly) else 0)
                for i in range(len(poly) + 1)
            ]
        row = tables.rec_table(n)
        if not poly == [row.coeffs[k] for k in range(n + 1)]:
            raise CheckFailure(f"polynomial product differs at n={n}")


def check_srec_extremes(rows: Rows) -> None:
    for n, row in rows:
        top = tables.srec_max(n)
        if not row[1] == math.factorial(n - 1):
            raise CheckFailure(f"C({n},1) wrong")
        if not row[top] == 1:
            raise CheckFailure(f"C({n},max) wrong")
        zeros = {k for k in range(1, top + 1) if row[k] == 0}
        if not zeros == {2, top - 1}:
            raise CheckFailure(f"zero set wrong at n={n}: {sorted(zeros)}")


def check_record_frequencies(n: int, seed: int) -> None:
    count = 20000
    hits = [0] * (n + 1)
    # counted per draw: at n = 8 the draws are mostly distinct, and a tally
    # of them raised the peak RSS of verify --max-n 8 by 2.7 MB
    for p in iter_uniform(n, seed, count):
        for pos in record_positions(p.entries):
            hits[pos] += 1
    bound = 4.0 / math.sqrt(count)
    for k in range(1, n + 1):
        if not abs(hits[k] / count - 1.0 / k) <= bound:
            raise CheckFailure(f"record frequency at position {k} off by more than 4/sqrt(N)")


def check_sampled_rec_distribution(seed: int) -> None:
    count = 100000
    # n = 4 repeats its 24 codes: tally them, then read each one's records
    tally: dict[tuple[int, ...], int] = {}
    for p in iter_uniform(4, seed, count):
        tally[p.entries] = tally.get(p.entries, 0) + 1
    freq = [0] * 5
    for entries, times in tally.items():
        freq[len(record_positions(entries))] += times
    for k, expected in enumerate((6, 11, 6, 1), start=1):
        p_k = expected / 24.0
        se = math.sqrt(p_k * (1 - p_k) / count)
        if not abs(freq[k] / count - p_k) <= 3 * se:
            raise CheckFailure(f"empirical P(rec={k}) beyond 3 standard errors")


def check_big_ln() -> None:
    if not tables.big_ln(1) == 0.0:
        raise CheckFailure("ln 1 != 0")
    if not abs(tables.big_ln(2**1000) - 1000 * math.log(2)) < 1e-9:
        raise CheckFailure("ln 2^1000 off")
    direct = math.fsum(math.log(j) for j in range(1, 101))
    got = tables.big_ln(math.factorial(100))
    if not abs(got - direct) < 1e-9 * direct:
        raise CheckFailure("ln 100! off")


# -------------------------------------------------------------- bounds


def check_rec_sum_identity(ns: Iterable[int]) -> None:
    """rec_prob_sum(n, k) = c(n, k)/n! for k in [0, n + 1]; 0 at both ends."""
    for n in ns:
        fact = math.factorial(n)
        row = tables.rec_table(n).coeffs + (0,)
        for k in range(0, n + 2):
            if not oracles.rec_prob_sum(n, k) * fact == row[k]:
                raise CheckFailure(f"rec sum formula differs at n={n}, k={k}")


def check_srec_sum_identity(ns: Iterable[int]) -> None:
    for n in ns:
        fact = math.factorial(n)
        row = tables.srec_table(n)
        for k in range(1, tables.srec_max(n) + 1):
            if not oracles.srec_prob_sum(n, k) * fact == row.coeffs[k]:
                raise CheckFailure(f"srec sum formula differs at n={n}, k={k}")


def check_pattern_total(ns: Iterable[int]) -> None:
    for n in ns:
        total = Fraction(0)
        for assignment in itertools.product("YN", repeat=n - 1):
            marks = dict(zip(range(2, n + 1), assignment))
            total += probabilities.pattern_probability(probabilities.PatternSpec(n, marks))
        if not total == 1:
            raise CheckFailure(f"pattern probabilities sum to {total} at n={n}")


def check_pattern_terms(ns: Iterable[int]) -> None:
    for n in ns:
        for size in range(0, n):
            total = Fraction(0)
            for chosen in itertools.combinations(range(2, n + 1), size):
                marks = {j: "Y" if j in chosen else "N" for j in range(2, n + 1)}
                total += probabilities.pattern_probability(probabilities.PatternSpec(n, marks))
            if not total == oracles.rec_prob_sum(n, size + 1):
                raise CheckFailure(
                    f"pattern terms disagree with the rec sum at n={n}, k={size + 1}")


def check_rec_bounds_bracket(ns: Iterable[int], slack: float) -> None:
    for n in ns:
        row = tables.rec_table(n)
        fact_log = tables.big_ln(math.factorial(n))
        for k in range(1, n + 1):
            x = 1.0 if k == n else (k + 0.5) / n  # mid-cell, floors to k exactly
            lo, hi = probabilities.rec_prob_bounds(n, x)
            actual = tables.big_ln(row.coeffs[k]) - fact_log
            if not lo - slack <= actual <= hi + slack:
                raise CheckFailure(f"rec bracket fails at n={n}, k={k}")


def check_srec_bounds_bracket(rows: Rows, slack: float) -> None:
    for n, row in rows:
        fact_log = tables.big_ln(math.factorial(n))
        for k in _feasible_ks(n):
            lo, hi = probabilities.srec_prob_bounds(n, k)
            actual = tables.big_ln(row[k]) - fact_log
            if not lo - slack <= actual <= hi + slack:
                raise CheckFailure(f"srec bracket fails at n={n}, k={k}")


def check_min_product_vs_bruteforce(ns: Iterable[int]) -> None:
    for n in ns:
        best = oracles.min_product_brute_force(n)
        for k in _feasible_ks(n):
            got = extremal.min_product(n, k)
            if not (got.m, got.witness) == best[k]:
                raise CheckFailure(f"min_product differs from brute force at n={n}, k={k}")


def check_small_k_structure(ns: Iterable[int]) -> None:
    for n in ns:
        for k in range(3, n + 1):
            got = extremal.min_product(n, k)
            if not (got.m == k - 1 and got.witness == (1, k - 1)):
                raise CheckFailure(f"m(n,k) != k-1 at n={n}, k={k}")


def check_i0_forms_agree(ns: Iterable[int]) -> None:
    closed, greedy = extremal.i0_closed, oracles.i0_greedy
    for n in ns:
        for k in range(n + 1, n * (n + 1) // 2 + 1):
            if not closed(n, k) == greedy(n, k):
                raise CheckFailure(f"i0 forms differ at n={n}, k={k}")


def check_gamma_squeeze(ns: Iterable[int], slack: float) -> None:
    for n in ns:
        top = tables.srec_max(n)
        for k in range(n + 1, top + 1):
            if k == top - 1:
                continue
            bounds = extremal.gamma_bounds(n, k)
            log_m = tables.big_ln(extremal.min_product(n, k).m)
            if not bounds.log_lower - slack <= log_m <= bounds.log_upper + slack:
                raise CheckFailure(f"gamma squeeze fails at n={n}, k={k}")


def check_i0_sqrt_distance(ns: Iterable[int]) -> None:
    # the acceptance gate runs this over 20.8 M (n, k): names are bound locally
    closed, sqrt = extremal.i0_closed, math.sqrt
    for n in ns:
        pairs = n * (n + 1)
        for k in range(n + 1, pairs // 2):
            if not abs(n - closed(n, k) - n * sqrt(1.0 - 2 * k / pairs)) <= 3.0:
                raise CheckFailure(f"|n - i0 - n sqrt(1-x)| > 3 at n={n}, k={k}")


def check_srec_count_bounds(rows: Rows, slack: float) -> None:
    for n, row in rows:
        top = tables.srec_max(n)
        for k in range(3, top + 1):
            if k == top - 1 or (k > n and n < 4):
                continue
            lo, hi = extremal.srec_count_bounds(n, k)
            actual = tables.big_ln(row[k])
            if not lo - slack <= actual <= hi + slack:
                raise CheckFailure(f"count bracket fails at n={n}, k={k}")


# ------------------------------------------------------------- scaling


def check_psi_at_one(rec_rows: Rows, srec_rows: Rows) -> None:
    for kind, name, rows in ((REC, "f", rec_rows), (SREC, "phi", srec_rows)):
        for n, row in rows:
            if not row[scaling._step_index(n, kind, 1.0)] == 1:
                raise CheckFailure(f"{name}_{n}(1) != 1")


def check_values_match_tables(rec_rows: Rows, srec_rows: Rows) -> None:
    # Breakpoints x = k/top land as the nearest float: the step value must
    # come from the coefficient at k, or at k-1 when the float dipped below
    # the cut, and exactly from k whenever the quotient is representable.
    # For srec, k = 4 .. top-3 keeps k and k-1 inside the middle branch.
    for kind, rows in ((REC, rec_rows), (SREC, srec_rows)):
        for n, row in rows:
            top = n if kind == REC else tables.srec_max(n)
            for k in range(1, n + 1) if kind == REC else range(4, top - 2):
                x = k / top
                got = row[scaling._step_index(n, kind, x)]
                if not (got == row[k] or got == row[max(k - 1, 1)]):
                    raise CheckFailure(f"{kind} step value off at n={n}, k={k}")
                p, q = x.as_integer_ratio()
                if p * top == k * q and not got == row[k]:
                    raise CheckFailure(f"{kind} step value misses exact cut at n={n}, k={k}")


def check_segment_interiors(ns: range, seed: int) -> None:
    """On 10 sampled segments of each full row, the interior deviates no more than the ends.

    The ends deviate no more than the sup of the report that one
    ``_reports`` pass per stat certifies for that n.
    """
    rng = random.Random(seed)
    for stat in (REC, SREC):
        reports = scaling._reports(stat, ns[0], ns[-1])
        for (n, row), report in zip(_sweep(stat, ns[0], ns[-1]), reports):
            _, a, b = scaling._cuts(n, stat)
            segments = scaling._segments(n, stat, row)  # both end branches, and k in [a, b)
            taken = -1
            for pick in sorted(rng.randrange(2 + max(b - a, 0)) for _ in range(10)):
                if pick > taken:
                    x_lo, x_hi, value = next(itertools.islice(segments, pick - taken - 1, None))
                    taken = pick
                y = tables.big_ln(value) / (n * math.log(n))
                end_dev = max(
                    abs(y - scaling.target_value(stat, x_lo)),
                    abs(y - scaling.target_value(stat, x_hi)),
                )
                for _ in range(20):
                    x = rng.uniform(x_lo, x_hi)
                    if not abs(y - scaling.target_value(stat, x)) <= end_dev + 1e-12:
                        raise CheckFailure(f"interior deviation exceeds endpoints at n={n}")
                if not end_dev <= report.sup_dev + 1e-12:
                    raise CheckFailure(f"{stat} segment exceeds reported sup at n={n}")


def check_tau_window(reports: Iterable[scaling.DeviationReport], window_hi: int) -> float:
    """Every tau(n) is at most 1.1 C_emp, the largest tau over n = 2..window_hi; returns C_emp."""
    taus = {r.n: r.tau for r in reports}
    c_emp = max(taus[n] for n in range(2, window_hi + 1))
    for n, tau in taus.items():
        if not tau <= 1.1 * c_emp:
            raise CheckFailure(f"tau({n}) breaks the 1.1x window bound")
    return c_emp


# --------------------------------------------------------------- temme


def check_u1_algebraic() -> None:
    if not abs(temme.solve_u1(2, 1) - math.sqrt(2.0)) < 1e-9:
        raise CheckFailure("u1(2,1) != sqrt(2)")


def check_solver_residuals(ns: Iterable[int]) -> None:
    for n in ns:
        for m in range(1, n):
            u1 = temme.solve_u1(n, m)
            if not abs(temme.phi_prime(u1, n, m)) <= 1e-12 * m / u1:
                raise CheckFailure(f"residual contract broken at n={n}, m={m}")


def check_phi_prime_vs_direct(ns: Iterable[int], seed: int) -> None:
    rng = random.Random(seed)
    for n in ns:
        for _ in range(20):
            m = rng.randint(1, n - 1)
            u = math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
            fast = temme.phi_prime(u, n, m)
            slow = oracles.phi_prime_direct(u, n, m)
            if not abs(fast - slow) <= 1e-9 * max(1.0, abs(slow)):
                raise CheckFailure(f"digamma and direct phi' differ at n={n}, u={u}")


def check_special_functions(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(100):
        x = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        if not abs(temme.digamma(x + 1.0) - temme.digamma(x) - 1.0 / x) <= 1e-10:
            raise CheckFailure(f"digamma recurrence off at x={x}")
        if not abs(temme.trigamma(x + 1.0) - temme.trigamma(x) + 1.0 / (x * x)) <= 1e-10:
            raise CheckFailure(f"trigamma recurrence off at x={x}")
    if not abs(temme.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-12:
        raise CheckFailure("lnGamma(1/2) off")
    if not abs(temme.log_gamma(1.0)) < 1e-12:
        raise CheckFailure("lnGamma(1) not ~0")
    for arg in range(1, 172):
        if not abs(temme.log_gamma(float(arg)) - tables.big_ln(math.factorial(arg - 1))) <= 1e-9:
            raise CheckFailure(f"lnGamma({arg}) differs from the factorial log")


def check_u1_enclosure(ns: Iterable[int]) -> None:
    for n in ns:
        for tenth in range(1, 10):
            m = n * tenth // 10
            x = m / n
            u1 = temme.solve_u1(n, m)
            lo = n * x * x / (6.0 * (4.0 / 3.0 - x))
            hi = n * (x / (1.0 - x) + 1.0 / n)
            if not lo <= u1 <= hi:
                raise CheckFailure(f"u1 enclosure fails at n={n}, x={x}")


def check_estimate_trend(ns: Iterable[int], count: Callable[[int, int], int]) -> None:
    """The error of temme_estimate(n, n // 2) against the exact ``count(n, n // 2)`` shrinks along ns."""
    prev = None
    for n in ns:
        m = n // 2
        exact_log = tables.big_ln(count(n, m))
        est = temme.temme_estimate(n, m)
        rel = abs(math.exp(est.log_estimate - exact_log) - 1.0)
        if not (prev is None or rel < prev):
            raise CheckFailure(f"estimate error did not shrink at n={n}")
        prev = rel


def check_scaled_limit_trend(xs: Iterable[float], ns: Sequence[int]) -> None:
    for x in xs:
        devs = [abs(v - (1.0 - x)) for _, v in temme.scaled_limit_table(x, ns)]
        if not all(b < a for a, b in zip(devs, devs[1:])):
            raise CheckFailure(f"scaled-limit deviation not decreasing at x={x}")


# ------------------------------------------------------------ catalogue


def _from(low: int, reason: str, args: Callable[[int], tuple]) -> Callable[[int], tuple]:
    """``args`` for a check whose smallest meaningful n is ``low``; below it the check skips."""

    def gated(max_n: int) -> tuple:
        if max_n < low:
            raise CheckSkipped(reason)
        return args(max_n)

    return gated


def _upto(cap: int, low: int = 1) -> Callable[[int], tuple]:
    """The single argument range(low, min(max_n, cap) + 1)."""
    return lambda m: (range(low, min(m, cap) + 1),)


def _sweep(kind: str, low: int, high: int) -> Rows:
    """The rows n = low..high of one in-place row sweep of ``kind``."""
    rows = tables.iter_rec_rows(high) if kind == REC else tables.iter_srec_rows(high)
    return itertools.islice(rows, low - 1, None)


def _both_sweeps(m: int) -> tuple[Rows, Rows]:
    """The rec and the srec rows n = 2..m, where the step curves are defined."""
    return _sweep(REC, 2, m), _sweep(SREC, 2, m)


# (label, check, the check's arguments at a given max_n)
_CHECKS: dict[str, list[tuple[str, Callable[..., object], Callable[[int], tuple]]]] = {
    "core": [
        ("lehmer roundtrip is a bijection (exhaustive)", check_lehmer_roundtrip, _upto(6)),
        ("record positions equal code zeros", check_records_vs_code_zeros,
         lambda m: (m, _SEED)),
        ("tables match brute-force enumeration", check_tables_vs_bruteforce, _upto(8)),
        ("row sums equal n!", check_row_sums,
         lambda m: (tables.iter_rec_rows(m), tables.iter_srec_rows(m))),
        ("rec rows equal direct polynomial products", check_rec_row_vs_polynomial, _upto(50)),
        ("srec extremes and zero positions", check_srec_extremes,
         lambda m: (_sweep(SREC, 3, max(m, 3)),)),
        ("sampled record frequencies are 1/k", check_record_frequencies,
         lambda m: (min(max(m, 4), 10), _SEED)),
        ("sampled rec distribution matches c(4,k)/24", check_sampled_rec_distribution,
         _from(4, "needs n = 4", lambda m: (_SEED + 1,))),
        ("big-integer natural log", check_big_ln, lambda m: ()),
    ],
    "bounds": [
        ("rec sum formula equals c(n,k)/n!", check_rec_sum_identity, _upto(10)),
        ("srec sum formula equals C(n,k)/n!", check_srec_sum_identity, _upto(10)),
        ("pattern probabilities sum to 1", check_pattern_total, _upto(12)),
        ("full patterns reproduce the rec sum terms", check_pattern_terms, _upto(8, 2)),
        ("rec probability bracket", check_rec_bounds_bracket,
         lambda m: (range(1, min(m, 30) + 1), _SLACK)),
        ("srec probability bracket", check_srec_bounds_bracket,
         lambda m: (tables.iter_srec_rows(min(m, 20)), _SLACK)),
        ("minimum product matches brute force", check_min_product_vs_bruteforce, _upto(12)),
        ("m(n,k) = k-1 with witness (1, k-1) for k <= n", check_small_k_structure,
         lambda m: (range(3, max(m, 3) + 1),)),
        ("closed-form i0 equals greedy i0", check_i0_forms_agree,
         _from(4, "needs n >= 4", lambda m: (range(4, m + 1),))),
        ("Gamma squeeze brackets ln m(n,k)", check_gamma_squeeze,
         _from(4, "needs n >= 4", lambda m: (range(4, min(m, 40) + 1), _SLACK))),
        ("|n - i0 - n sqrt(1-x)| <= 3", check_i0_sqrt_distance,
         _from(4, "needs n >= 4", lambda m: (range(4, m + 1),))),
        ("count bounds bracket ln C(n,k)", check_srec_count_bounds,
         _from(3, "needs n >= 3", lambda m: (tables.iter_srec_rows(min(m, 60)), _SLACK))),
    ],
    "scaling": [
        ("scaled curves vanish at x = 1", check_psi_at_one, _both_sweeps),
        ("step values match table lookups", check_values_match_tables, _both_sweeps),
        ("interior deviation below endpoint deviation", check_segment_interiors,
         lambda m: (range(2, m + 1), _SEED + 2)),
        ("tau series bounded (rec)", check_tau_window,
         lambda m: (scaling.tau_series(REC, 2, m), min(m, 50))),
        ("tau series bounded (srec)", check_tau_window,
         lambda m: (scaling.tau_series(SREC, 2, min(m, 150)), min(m, 50))),
    ],
    "temme": [
        ("u1(2,1) is sqrt(2)", check_u1_algebraic, lambda m: ()),
        ("solver residual within 1e-12 m/u", check_solver_residuals,
         lambda m: (range(2, m + 1),)),
        ("telescoped phi' agrees with direct sums", check_phi_prime_vs_direct,
         lambda m: ((5, 50, 500, 2000), _SEED + 3)),
        ("special function identities", check_special_functions, lambda m: (_SEED + 4,)),
        ("u1/n enclosure for large n", check_u1_enclosure,
         _from(50, "the u1/n enclosure is asymptotic; needs n >= 50",
               lambda m: ([n for n in (50, 100, 200, 400) if n <= m],))),
        ("estimate error shrinks against exact counts", check_estimate_trend,
         _from(160, "trend check spans n = 20..160",
               lambda m: ((20, 40, 80, 160), tables.rec_count))),
        ("scaled limit approaches 1 - x", check_scaled_limit_trend,
         _from(400, "trend check spans n = 25..400",
               lambda m: ((0.25, 0.5, 0.75), (25, 50, 100, 200, 400)))),
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
        for label, check, args in _CHECKS[group]:
            try:
                check(*args(max_n))
            except CheckSkipped as reason:
                emit(f"SKIP {group}: {label} ({reason})")
            except CheckFailure as failure:
                emit(f"FAIL {group}: {label}: {failure}")
                ok = False
            else:
                emit(f"PASS {group}: {label}")
    return ok
