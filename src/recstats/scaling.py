"""
Scaled limit shapes of the record-count and record-sum distributions.

Rescale k to x in [0, 1] (x = k/n for rec, x = 2k/(n(n+1)) for srec)
and the log counts collapse onto simple curves:

    ln f_n(x) / (n ln n)   -> 1 - x        (rec)
    ln phi_n(x) / (n ln n) -> sqrt(1 - x)  (srec)

uniformly on [0, 1], at speed O(1/ln n).  Here f_n(x) is c(n, floor(nx))
for x >= 1/n and c(n, 1) below, and phi_n(x) is a three-branch step
curve: (n-1)! before 6/(n(n+1)), the constant 1 from 1 - 2/(n(n+1)) on,
and C(n, floor(n(n+1)x/2)) in between.  Both are one shape, with the
end branches row[1] and row[top] of the count row (c(n, 1) = C(n, 1) =
(n-1)!, C(n, top) = 1), and ``_cuts`` states the cuts for both.  The
branch cuts dodge the two zero coefficients, so logs always exist.
Branches are tested in that order; for n = 2 the first branch swallows
[0, 1) and the middle one is vacuous.

The sup deviation from the target curve is computed exactly, never by
grid search: psi_n is constant on segments while the target decreases,
so each segment attains its extreme deviation at an endpoint (the right
endpoint as a one-sided limit).  tau(n) = sup deviation * ln n is the
bounded series certifying the uniform convergence rate.

The scan is one loop: both endpoints of every segment, in order, the
first maximum kept, so its report (sup, argmax, first maximum on ties)
is the full scan's by construction.  It holds one segment at a time on
top of the row, and a value below 1 raises big_ln's ValueError.  It
reads the row it is given: a row shorter than top + 1 is a certified
prefix, and ``_reports`` picks it.  Two theorems (below) cut the rows:
rec at k = 1 for every n, and srec at k = 5 for every n >= 6.  So the
scan reads (n-1)! alone for rec and (0, f, 0, f, f/2, f/3), f = (n-1)!,
for srec, with f a running product over the range of n seeded with
``math.factorial``; srec n = 2..5 read the whole row.  On a prefix the
middle segments end with the row, and the last segment takes
row[top] = 1.  The curves and the tables keep full rows.

Position j of a uniform permutation is a record with probability 1/j,
independently of the others, so the permutations whose records sit
exactly at {1} + S number prod(j - 1 for j in U), U = {2, ..., n} - S,
and

    C(n, k) = (n-1)! * sum of 1/prod(s - 1 for s in S) over S in {2, ..., n}, sum(S) = k - 1.

For k <= n + 1, a set of distinct integers >= 2 with sum k - 1 <= n
has no element above n, so the bound S in {2, ..., n} can be dropped:
C(n, k) = (n-1)! a_{k-1} for k <= n + 1, where a_j, the coefficient of
z^j in P(z) = prod(1 + z^s/(s - 1) for s >= 2), does not depend on n.
From a_0, ..., a_4 = 1, 0, 1, 1/2, 1/3, the row of n >= 4 begins
(0, f, 0, f, f/2, f/3).  For n + 1 < k <= 2n + 1 a set with sum
k - 1 <= 2n has at most one element s > n, and the rest, with sum
k - 1 - s < n, lies in {2, ..., n}; that is the band formula
C(n, k)/(n-1)! = a_{k-1} - sum of a_{k-1-s}/(s - 1) over n < s < k.
The tests check both identities on exact rows.

Lemma 1.  0.4678 <= a_m <= 1 for every m >= 5; the least is
a_8 = 131/280 and the largest a_5 = 3/4.  For 5 <= m <= M = 3500 a test
forms the product in floats.  Each coefficient is a sum of nonnegative
terms, each above 10^-134 (a set with sum at most 3500 has at most 82
elements, so by AM-GM its product of s - 1 is below (3500/82)^82), and
each factor rounds one quotient and one sum, so the computed a_m lies
within a factor (1 + 2^-53)^(2m) < 1 + 10^-9 of the exact one.  For
m > M: as 1/(1 - z) = exp(sum of z^s/s over s >= 1),
P(z) = e^-z E(z)/(1 - z), with E(z) = prod(F_s(z^s) for s >= 2) and
F_s(w) = (1 + w/(s - 1)) e^(-w/s).  So a_m = sum of e_i S(m - i) over
i <= m, with e_i the coefficients of E and S(t) = sum of (-1)^j/j! over
j <= t.  F_s has the coefficients c_{s,t} = (-1)^(t-1) s^(1-t)/(t-1)!
(1/(s - 1) - 1/(st)) for t >= 1, so G_s(w) = 2 - F_s(-w) has the
coefficients |c_{s,t}|, and |e_i| is at most the coefficient u_i of
G(z) = prod(G_s(z^s)).  G(1) is finite (below), so E(1) =
prod((s/(s - 1)) e^(-1/s)) = e^(1-gamma) is the absolutely convergent
sum of the e_i, and

    |a_m - e^-gamma| <= sum of u_i |S(m - i) - 1/e| over i <= m + sum of u_i/e over i > m.

The alternating tail gives |S(t) - 1/e| <= 1/(t+1)!, and for
1 <= i <= m, 1/(m - i + 1)! <= i/m <= (i/m)^theta with theta = 4/5, as
i (m - i + 1)! >= i (m - i + 1) >= m; for i > m, 1/e < (i/m)^theta.  So
|a_m - e^-gamma| <= 1/(m+1)! + K m^-theta, K = sum of u_i i^theta over
i >= 1.  As
(i_1 + i_2 + ...)^theta <= i_1^theta + i_2^theta + ..., K <=
G(1) * sum of B_s/G_s(1), with B_s = sum of (st)^theta |c_{s,t}| over t,
and t^theta <= 1 + theta (t - 1) gives B_s <= s^theta ((1 - theta)
(G_s(1) - 1) + theta G_s'(1)).  Here G_s(1) = 2 - (s-2) e^(1/s)/(s-1),
so G_2(1) = 2, and e^(1/s) >= 1 + 1/s + 1/(2s^2) gives G_s(1) - 1 <=
(3s + 2)/(2s^2 (s-1)); G_s'(1) = 2 e^(1/s)/(s(s-1)).  Hence
ln G(1) <= ln 2 + sum of (3s + 2)/(2s^2 (s-1)) over s >= 3
= ln 2 + 5/2 - pi^2/6, so G(1) < 4.71, and B_s <= s^(theta-2)
(s/(s - 1)) beta_s with beta_s = (1 - theta)(3s + 2)/(2s) +
2 theta e^(1/s), which decreases in s.  The terms s = 2..5, that of
s = 2 halved by G_2(1), add up to less than 3.39; the rest to less than
(6/5) beta_6 * 5 * 5.5^-0.2 < 9.49, since the sum of s^-1.2 over s >= 6
is at most the integral of x^-1.2 from 5.5 on.  So K < 4.71 * 12.88 <
60.7, and for m > 3500, |a_m - e^-gamma| < 60.7 * 3500^-0.8 + 10^-9 <
0.0888, while e^-gamma = 0.56145... lies 0.0936 above 0.4678.

For 3 <= q <= n + 1 let F_q hold the S with [q..n] in S and q - 1 not
in S: q - 1 is the largest value S leaves out, so the F_q are disjoint.
Such an S is [q..n] plus a subset S' of {2, ..., q - 2}, and its term
is q - 2 times the term of S' in the row of q - 2, so F_q adds up to
(q - 2) C(q - 2, k - sum[q..n]), with C(m, j) = 0 off the row.  Every
k > n lies in the run of one q0 = n - i0(n, k) (``extremal``), k =
sum[q0..n] + 1 + r with 0 <= r <= q0 - 2 and 3 <= q0 <= n.

Lemma 2.  For q0 >= 9, C(n, k) >= 0.4678 (q0 - 2)! on the whole run.
F_q0 adds up to (q0 - 2)! a_r, by the prefix identity in the row of
q0 - 2, and F_q0+1 to (q0 - 1) C(q0 - 1, q0 + r + 1) =
(q0 - 1)! (a_{q0+r} - sum of a_{r-i}/(q0 - 1 + i) over i <= r), by the
band formula in the row of q0 - 1.  For r >= 5, lemma 1 bounds a_r.
For r <= 4, a_0 + ... + a_4 = 17/6 and lemma 1 give C(n, k) >=
(q0 - 1)! (0.4678 - (17/6)/(q0 - 1)) >= 0.4678 (q0 - 2)!, as
7 * 0.4678 > 17/6.  The upper end on the run is
``extremal._log_count_upper``: C(n, k) <= 2^n Gamma(q0).

Theorem (srec).  For n >= 6 no middle segment k >= 6 reaches the
largest deviation of the segments the prefix holds: the first,
segments 3..5 and the last, of values (n-1)!, (n-1)!/2, (n-1)!/3 and 1.
Write f = (n-1)!, P = n(n+1) = 2 top, N = n ln n and T(x) = sqrt(1 - x).
The left end of segment 5 deviates by E = T(10/P) - ln(f/3)/N, so the
floor, the largest deviation of the segments read, is at least E.  For
n >= 65 every middle segment 6 <= k <= top - 2 deviates at both ends by
at most E - g(n), where

    g(n) N = ln(3 * 0.4678) - (ln n - 1)^2/(8n) - 5N/(P - 5).

g(n) N is 0.0029 at n = 65, 0.095 at 100 and 0.30 at 1000, and it grows
with n, as both terms it subtracts fall for n > e^3.  The tools:
sqrt(1 - t) >= 1 - t/(2 - t) on [0, 1], so N T(10/P) >= N - 5N/(P - 5);
Robbins' bound ln n! < (n + 1/2) ln n - n + 1, so ln f <
(n - 1/2) ln n - n + 1 and NE > V = n - 1 + ln(3 sqrt n) - 5N/(P - 5).
T decreases, so a segment deviates below the target most at its left
end and above it most at its right end.

* 6 <= k <= n + 1, C(n, k) = f a_{k-1}.  Below: by lemma 1 the left end
  deviates by at most T(6/top) - (ln f + ln 0.4678)/N, which lies
  (ln(3 * 0.4678) + N (T(5/top) - T(6/top)))/N >= g(n) below E.  Above:
  a_{k-1} <= 1, so the right end deviates by at most
  ln f/N - T((n+2)/top), and N times its gap to E exceeds
  2n - 2 + ln(3n) - 5N/(P - 5) - N(n + 2)/(P - n - 2) > 1.
* k > n in the run of q0 >= 9, below.  With d = n - q0,
  top - k <= q0(q0 - 1)/2 - 1, so T(k/top)^2 < q0(q0 - 1)/P <=
  ((q0 - 1/2)/(n + 1/2))^2.  f/(q0 - 2)! is a product of d + 1 factors
  of mean n - 1 - d/2, so its log is at most (d + 1)(ln n - (d + 2)/(2n)).
  With lemma 2, N times the gap to E is at least
  ln(3 * 0.4678) - 5N/(P - 5) + (d + 1)((d + 2)/(2n) - ln n/(2n + 1)),
  and the last term is at least the least value of
  x(x + 1 - ln n)/(2n) over real x, -(ln n - 1)^2/(8n): that is g(n) N.
* k > n in the run of q0 <= 8, below.  C(n, k) >= 1, as a middle
  segment holds a feasible k, and T(k/top) < 7.5/(n + 1/2) as above,
  so N times the gap to E exceeds V - 7.5N/(n + 1/2) > 1.
* k > n in any run, above.  C(n, k) <= 2^n Gamma(q0), and
  top - k - 1 >= q0(q0 - 3)/2 gives T((k+1)/top) >= (q0 - 3)/(n + 1/2).
  N times the gap to E exceeds V - n ln 2 + h(q0), where
  h(q) = N(q - 3)/(n + 1/2) - ln Gamma(q) is concave, so at least
  min(h(3), h(n)) >= min(-ln 2, n - 1 - 3 ln n) = -ln 2, and
  V - n ln 2 - ln 2 > 1.

Every other gap exceeds 1 > g(n) N.  For 6 <= n < 65 a test
reads the exact rows: every middle segment k >= 6 deviates by at most
the floor less ln(3 * 0.4678)/N.  The scan's deviations are differences
of floats at most 1, each a few ulps off, while g(n) > 10^-12 for every
n from 65 to 10^10, far past any n whose (n-1)! can be formed; so no
skipped endpoint can reach the floor, and the report from the prefix is
the full row's.  For n >= 10 the sup is E itself.  It exceeds the
deviation 1 - ln f/N at x = 0 by ln 3/N - (1 - T(10/P)) >=
(ln 3 - 5N/(P - 5))/N > 0, that of f/2 at x = 4/top by
ln(3/2)/N - (T(8/P) - T(10/P)) > ln(3/2)/N - 1.1/P > 0, and that of the
last segment, sqrt(2/P), since NE > V; the right ends of the first
segments deviate less than their left ends.  So tau(n) =
ln n sqrt(1 - 10/(n(n+1))) - ln((n-1)!/3)/n for every n >= 10, and n <= 9
have the sup at x = 0.

For rec the sup sits at x = 0 for every n >= 2, so the scan reads only
(n-1)!, a running product as for srec, and no row is built.  Let
F = 1 - ln((n-1)!)/(n ln n), the first segment's deviation at x = 0.
As (n-1)! <= n^(n-2), the other ends of the two segments of (n-1)!, on
[0, 2/n), deviate by F - 1/n and F - 2/n, and c(n, n) = 1 deviates by 0
at x = 1.  Middle segment k >= 2 covers [k/n, (k+1)/n) and T decreases,
so it deviates by at most the larger of T(k/n) - ln c(n, k)/(n ln n)
below the target and ln c(n, k)/(n ln n) - T((k+1)/n) above it.
Expanding q(q+1)...(q+n-1) gives c(n, k) = e_{n-k}(1, 2, ..., n-1), the
elementary symmetric sum of degree n - k.

* Below.  The term k(k+1)...(n-1) of e_{n-k}, of the n - k largest
  factors, gives c(n, k) >= (n-1)!/(k-1)!, so the deviation below is at
  most F - k/n + ln((k-1)!)/(n ln n).  From k to k + 1 that changes by
  (ln k - ln n)/(n ln n) < 0, so it is at most F - 2/n, its value at
  k = 2.
* Above.  Put j = n - k.  Each term of e_j(x) appears j! times in the
  expansion of (x_1 + x_2 + ...)^j, whose other terms are nonnegative,
  so c(n, k) <= C(n, 2)^j/j! = n^j c^j/j! with c = C(n, 2)/n = (n-1)/2,
  and c^j/j! <= e^c.  F less the deviation above is
  ((n + j) ln n - ln n! - ln c(n, k))/(n ln n), and with
  n! <= e sqrt(n) (n/e)^n that is at least (n - 1 - ln n)/(2 n ln n) > 0.

So every middle segment k >= 2 deviates by at most
F - min(2/n, (n - 1 - ln n)/(2 n ln n)) < F, and tau(n) =
ln n - ln((n-1)!)/n.  The scan's deviations are differences of floats
at most 1, each a few ulps off, while that gap exceeds 1e-9 for every
n below 2 * 10^9, far past any n whose (n-1)! can be formed; so no
skipped endpoint can reach the scan's deviation at x = 0, and the
report from the prefix (0, (n-1)!) is the full row's.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tables import (
    REC,
    SREC,
    big_ln,
    rec_table,
    srec_max,
    srec_table,
)

# the series reads only (n-1)!, (n-1)!/2 and (n-1)!/3 of each srec row past
# n = 5 (module docstring), so no cost of its own sets this cap; it rejects
# outside input until one cost model sets every cap
SREC_SERIES_LIMIT = 300


class ScaledCurve(NamedTuple):
    """Samples (x, ln value / (n ln n)) of one scaled step curve.

    A NamedTuple: it equals the plain tuple of its fields; copy it with ``_replace``.
    """

    n: int
    stat: str
    samples: tuple[tuple[float, float], ...]


class DeviationReport(NamedTuple):
    """Exact sup deviation of the scaled curve from its target shape.

    A NamedTuple: it equals the plain tuple of its fields; copy it with ``_replace``.
    """

    n: int
    stat: str
    sup_dev: float
    tau: float
    argmax_x: float


def _check_stat(stat: str) -> None:
    if stat not in (REC, SREC):
        raise ValueError(f"stat must be {REC!r} or {SREC!r}")


def _one_minus(x: float) -> float:
    return 1.0 - x


def _sqrt_one_minus(x: float) -> float:
    return math.sqrt(1.0 - x)


def _target(stat: str) -> Callable[[float], float]:
    """The limit shape of ``stat`` as a function of x; a scan checks ``stat`` once."""
    _check_stat(stat)
    return _one_minus if stat == REC else _sqrt_one_minus


def target_value(stat: str, x: float) -> float:
    """Limit shape: 1 - x for rec, sqrt(1 - x) for srec."""
    return _target(stat)(x)


def _cuts(n: int, stat: str) -> tuple[int, int, int]:
    """(top, a, b): the branch cuts of the step curve, in units of 1/top.

    The curve is row[1] on [0, a/top), row[floor(top x)] on
    [a/top, b/top) and row[top] from b/top on, branches tested in that
    order; for srec n = 2, a > b and the first branch covers [0, 1).
    """
    if stat == REC:
        return n, 1, n
    top = srec_max(n)
    return top, 3, top - 1


def _step_index(n: int, stat: str, x: float) -> int:
    """The k whose count is the step value at x: f_n(x) = row[k] (rec), phi_n(x) = row[k] (srec).

    The branch tests and the floor run in integers on x = p/q from
    ``x.as_integer_ratio()``, the exact binary value of ``x``, so a test
    and the floor beside it can never disagree at a cut.
    """
    top, a, b = _cuts(n, stat)
    p, q = x.as_integer_ratio()
    if p * top < a * q:
        return 1
    if p * top >= b * q:
        return top
    return (top * p) // q


def _row(n: int, stat: str) -> tuple[int, ...]:
    return (rec_table(n) if stat == REC else srec_table(n)).coeffs


def _step_value(n: int, stat: str, x: float) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    return _row(n, stat)[_step_index(n, stat, x)]


def fn_value(n: int, x: float) -> int:
    """Step extension of the rec counts: c(n, floor(nx)), held at c(n, 1) below 1/n.

    The branch test and the floor are evaluated exactly for the binary
    value of ``x`` (in integers on ``x.as_integer_ratio()``), so the two
    can never disagree at a threshold.  Each call builds its row.

    >>> fn_value(5, 0.0)
    24
    >>> fn_value(5, 1.0)
    1
    """
    return _step_value(n, REC, x)


def phin_value(n: int, x: float) -> int:
    """Step extension of the srec counts, branches tested in order.

    Exact branch tests keep the middle branch index inside
    [3, n(n+1)/2 - 2], clear of both zero coefficients.  Each call
    builds its row.

    >>> phin_value(5, 0.0)
    24
    >>> phin_value(5, 1.0)
    1
    """
    return _step_value(n, SREC, x)


def _segments(n: int, stat: str, row: Sequence[int]) -> Iterator[tuple[float, float, int]]:
    """Constant segments (x_lo, x_hi, value) covering [0, 1], in order, on ``_cuts``.

    ``row`` is the coefficient row indexed by k, dense up to its end.
    Middle segment k is (k/top, (k+1)/top, row[k]); the first and last
    segments are the end branches row[1] and row[top].  A row shorter
    than top + 1 is a certified prefix, and ``_reports`` picks it: the
    middle segments end with the row, and the last segment takes
    row[top] = 1 (c(n, n) = C(n, top) = 1).
    """
    top, a, b = _cuts(n, stat)
    yield 0.0, a / top, row[1]
    for k in range(a, min(b, len(row))):
        yield k / top, (k + 1) / top, row[k]
    yield max(a, b) / top, 1.0, row[top] if top < len(row) else 1


def _sup_from_row(n: int, stat: str, row: Sequence[int]) -> DeviationReport:
    target = _target(stat)
    n_ln_n = n * math.log(n)
    best_dev = -1.0
    best_x = 0.0
    for x_lo, x_hi, value in _segments(n, stat, row):
        y = big_ln(value) / n_ln_n
        for x in (x_lo, x_hi):
            dev = abs(y - target(x))
            if dev > best_dev:
                best_dev = dev
                best_x = x
    return DeviationReport(n, stat, best_dev, best_dev * math.log(n), best_x)


def _reports(stat: str, n_min: int, n_max: int) -> list[DeviationReport]:
    """``tau_series`` without its argument checks."""
    f = math.factorial(n_min - 1)  # (n-1)!, the row's first entry
    reports = []
    for n in range(n_min, n_max + 1):
        # the theorems of the module docstring cut rec at k = 1 and srec
        # n >= 6 at k = 5, inside C(n, k) = (n-1)! a_{k-1}; srec n <= 5 read
        # the whole row
        if stat == REC:
            row = (0, f)
        elif n >= 6:
            row = (0, f, 0, f, f // 2, f // 3)
        else:
            row = _row(n, stat)
        reports.append(_sup_from_row(n, stat, row))
        f *= n
    return reports


def sup_deviation(n: int, stat: str) -> DeviationReport:
    """Exact sup over [0, 1] of |scaled curve - target|, and tau = sup * ln n.

    The report is the one from evaluating every constant segment at both
    endpoints, the right one standing in for the one-sided limit, so no
    grid can under-report; a value below 1 raises ValueError.  The scan
    reads the count row of (n, stat) only up to a cut, proved in the
    module docstring: no segment past it reaches the largest deviation
    of the segments before it and the last one, by a gap far above the
    scan's rounding, so the report is the full row's.  For rec the cut is
    k = 1 for every n, so the scan reads (n-1)! alone.  For srec it is
    k = 5 for every n >= 6, so the scan reads (n-1)!, (n-1)!/2 and
    (n-1)!/3, the entries C(n, k) = (n-1)! a_{k-1}; no count row is
    built.  Srec n = 2..5 read the whole row.  ``tau_series`` scans a
    range of n.

    >>> r = sup_deviation(2, "rec")
    >>> (r.sup_dev, r.argmax_x)
    (1.0, 0.0)
    """
    _check_stat(stat)
    if n < 2:
        raise ValueError("n must be >= 2")
    return _reports(stat, n, n)[0]


def tau_series(stat: str, n_min: int, n_max: int) -> list[DeviationReport]:
    """DeviationReport for every n in [n_min, n_max], ascending.

    One pass over n holds (n-1)!, a running product, and hands the scan
    the entries of it up to each n's cut, as ``sup_deviation`` says:
    (n-1)! for rec, and (n-1)!, (n-1)!/2 and (n-1)!/3 for srec n >= 6.
    Srec n = 2..5 read the whole row.
    """
    _check_stat(stat)
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    if stat == SREC and n_max > SREC_SERIES_LIMIT:
        raise ValueError(f"srec series is limited to n_max <= {SREC_SERIES_LIMIT}")
    return _reports(stat, n_min, n_max)


def curve_samples(n: int, stat: str, num_points: int | None = None) -> ScaledCurve:
    """The scaled curve sampled at its breakpoints or on an even grid.

    ``num_points=None`` samples every segment's left endpoint plus x = 1
    (the full step structure); an integer asks for that many evenly
    spaced points, and needs num_points >= 2.  The arguments are checked
    before the row is built.
    """
    _check_stat(stat)
    if n < 2:
        raise ValueError("n must be >= 2")
    if num_points is not None and num_points < 2:
        raise ValueError("num_points must be >= 2")
    row = _row(n, stat)
    n_ln_n = n * math.log(n)
    samples: list[tuple[float, float]] = []
    if num_points is None:
        for x_lo, _, value in _segments(n, stat, row):
            samples.append((x_lo, big_ln(value) / n_ln_n))
        if samples[-1][0] != 1.0:
            samples.append((1.0, big_ln(row[-1]) / n_ln_n))
    else:
        for i in range(num_points):
            x = i / (num_points - 1)
            samples.append((x, big_ln(row[_step_index(n, stat, x)]) / n_ln_n))
    return ScaledCurve(n, stat, tuple(samples))


def curve_csv(curve: ScaledCurve) -> str:
    """CSV document ``x,psi_n,target``."""
    lines = ["x,psi_n,target"]
    lines.extend(
        f"{x!r},{y!r},{target_value(curve.stat, x)!r}" for x, y in curve.samples
    )
    return "\n".join(lines) + "\n"


def tau_csv(reports: Iterable[DeviationReport]) -> str:
    """CSV document ``n,sup_dev,tau,argmax_x``."""
    lines = ["n,sup_dev,tau,argmax_x"]
    lines.extend(
        f"{r.n},{r.sup_dev!r},{r.tau!r},{r.argmax_x!r}" for r in reports
    )
    return "\n".join(lines) + "\n"
