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
prefix, and ``_reports`` picks it.  For rec a theorem (below) cuts the
row at k = 1, and for srec a certificate cuts it at a small k.  When the
cut falls among the entries read off (n-1)!, ``_reports`` hands the scan
those entries up to the cut; otherwise it builds the whole row.  On a
prefix the middle segments end with the row, and the last segment takes
row[top] = 1.

For srec a certificate leaves the scan no more than the row's first
entries to read.  It bounds the deviation of every segment past the cut
and compares each bound with a floor: the largest deviation of the
segments the scan reads anyway, less the slack ``_BOUND_SLACK`` = 1e-9.
A bound's terms carry a few ulps of rounding, and the slack covers it
many times over while they stay below 1e4; for count rows, whose values
are at most n!, they are at most 1.  A segment bounded below the floor
therefore deviates by strictly less than the sup.

Position j of a uniform permutation is a record with probability 1/j,
independently of the others, so the permutations whose records sit
exactly at {1} + S number prod(j - 1 for j in U), U = {2, ..., n} - S,
and

    C(n, k) = (n-1)! * sum of 1/prod(s - 1 for s in S) over S in {2, ..., n}, sum(S) = k - 1.

For k <= n + 1, a set of distinct integers >= 2 with sum k - 1 <= n
has no element above n, so the bound S in {2, ..., n} can be dropped:
C(n, k) = (n-1)! a_{k-1} for k <= n + 1, where a_j, the coefficient of
z^j in prod(1 + z^s/(s - 1) for s >= 2), does not depend on n.  From
a_0, ..., a_4 = 1, 0, 1, 1/2, 1/3, the row of n >= 4 begins
(0, f, 0, f, f/2, f/3) with f = (n-1)!: that prefix is all the scan
reads, with f a running product over the range of n seeded with
``math.factorial``.

The normalized rows D_m(k) = C(m, k)/(m-1)! follow D_m(k) = D_{m-1}(k)
+ D_{m-1}(k-m)/(m-1) from D_1 = (0, 1), and D_m(k) = a_{k-1} for
k <= m + 1.  ``_normalized_rows`` runs that recurrence in floats.
Every D_m(k) is a sum of nonnegative terms and a step rounds one
quotient and one sum, so by induction each computed entry lies within a
factor (1 + 2^-53)^(2m-2) of its exact value; a run's bound below
rounds twice more, to (1 + 2^-53)^(2m), a relative error below
3m 2^-53.  That holds for normal floats.  Only rows m > 170 hold
entries below 2^-1022, kept only once n_max passes about 7000; there a
rounding may add up to 2^-1075 instead, nothing beside the values read,
each at least 1/n.  So the logs of the bounds err by about 3m 2^-53
plus a few ulps of ``math.log`` and ``math.lgamma``, which divided by
n ln n sits far inside the slack.

For 3 <= q <= n + 1 let F_q hold the S with [q..n] in S and q - 1 not
in S: q - 1 is the largest value S leaves out, so the F_q are disjoint.
Such an S is [q..n] plus a subset S' of {2, ..., q - 2}, and its term
is q - 2 times the term of S' in the row of q - 2, so F_q adds up to
(q - 2) C(q - 2, k - sum[q..n]), with C(m, j) = 0 off the row.  Every
k > n lies in the run of one q0 = n - i0(n, k) (``extremal``), k =
sum[q0..n] + 1 + r with 0 <= r <= q0 - 2, and F_q0 and F_q0+1 give,
with m = q0 - 1,

    C(n, k) >= (q0 - 2) C(q0 - 2, r + 1) + (q0 - 1) C(q0 - 1, r + 1 + q0)
             = (m - 1)! [D_m(r + 1) + m D_m(r + 1 + q0)],

the first term read from row m by the prefix identity, as r + 1 <= m.
At q0 = 3 only r = 0 counts, where the bound is 1: r = 1 is k = top - 1,
the zero coefficient, which no middle segment reads.  The bound depends
on (q0, r) alone, so the least value over each run serves every n, and
row m gives that of q0 = m + 1 in O(m) from its entries k <= 2m + 1.
The upper end on the run stays ``extremal._log_count_upper``,
2^n Gamma(q0).  Both ends are constant on a run and T decreases, so no
segment of the run deviates by more than max(hi/(n ln n) - T(x_end),
T(x_start) - lo/(n ln n)), read at the run's two ends.  Likewise
segments 6..n hold (n-1)! a_{k-1}, so they deviate by at most the larger
of (ln((n-1)!) + ln max a)/(n ln n) - T((n+1)/top) and T(6/top) -
(ln((n-1)!) + ln min a)/(n ln n), over a_5, ..., a_{n-1}.

``_srec_cuts`` makes one sweep of the normalized rows up to n_max - 1,
kept to k <= 2 n_max - 1.  Row n - 1 completes the least bound of the
run of q0 = n and a_{n-1}, so ``_srec_cut`` reads the cut of n when that
row arrives.  Its floor is the largest deviation of the end segments
and of segments 3..5, (n-1)! on [0, 4/top), (n-1)!/2 and (n-1)!/3 on
the next two and 1 on [1 - 1/top, 1], with ln((n-1)!) read as
lgamma(n), less the slack; the few ulps by which lgamma may differ from
the scan's log of (n-1)! sit inside the slack as the bounds' rounding
does.  When the prefix bound and every run bound lie below it, no
segment past k = 5 can hold the sup: the cut is 5, and the scan reads
the prefix to k = 5.  That holds
for every n from 6 to 1200; the sup sits at x = 0 up to n = 9 and at
the left end of segment 5, (n-1)!/3, from n = 10 on.  n = 2..5, and any
n whose bounds reach the floor, read the whole row.  The entries past
the cut are never read: each of their segments deviates by strictly
less than the sup, the slack covering the bounds' rounding as above, so
the report is the one the full row gives.

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
report from the prefix (0, (n-1)!) is the full row's.  The curves and
the tables keep full rows.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tables import (
    REC,
    SREC,
    big_ln,
    rec_table,
    srec_max,
    srec_table,
)

# the series reads each srec row only to k = 5, so its cost is the cuts': a
# float sweep of about 1.5 n_max^2 operations and about n_max^2 / 2 run
# bounds (module docstring); the cap stays until one cost model sets every cap
SREC_SERIES_LIMIT = 300

_LN2 = math.log(2.0)
# absolute; the module docstring says why it covers the bound's rounding
_BOUND_SLACK = 1e-9


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


def _normalized_rows(m_max: int) -> Iterator[tuple[int, list[float]]]:
    """Yield (m, D_m) for m = 1..m_max, D_m(k) = C(m, k)/(m-1)! in floats for k <= 2 m_max + 1.

    D_m(k) = D_{m-1}(k) + D_{m-1}(k-m)/(m-1), the recurrence of
    ``tables.iter_srec_rows`` divided by (m-1)!.  Every step yields the
    same list, updated in place; each entry is within a relative
    3m 2^-53 of its exact value (module docstring).
    """
    d = [0.0] * (2 * m_max + 2)
    d[1] = 1.0
    for m in range(1, m_max + 1):
        yield m, d
        # D_{m+1}(k) = D_m(k) + D_m(k-m-1)/m, read from slices of row m
        d[m + 2:] = map(add, d[m + 2:], map(truediv, d[1:-m - 1], repeat(m)))


def _srec_cut(n: int, lows: Sequence[float], a_min: float, a_max: float) -> int:
    """The last k of the srec row of n >= 6 that the sup scan must read: 5 when the bounds certify, else top.

    The floor is the largest deviation of the end segments and of
    segments 3..5, whose values are (n-1)!, (n-1)!/2 and (n-1)!/3, with
    ln((n-1)!) read as lgamma(n), less ``_BOUND_SLACK``.  Segments 6..n
    hold (n-1)! a_{k-1}, a_{k-1} in [a_min, a_max].  Every middle k > n
    lies in the run of one q0 in [3, n], k = s + 1 + r with
    s = sum[q0..n] and 0 <= r <= q0 - 2, on which ln C(n, k) lies between
    ``lows[q0]`` and n ln 2 + ln Gamma(q0), extremal's upper end.  Each
    bound is read at its range's two ends, as T decreases (module
    docstring).
    """
    top, _, b = _cuts(n, SREC)
    n_ln_n = n * math.log(n)
    ln_f = math.lgamma(n)
    ends = ((0, 4, ln_f), (4, 5, ln_f - _LN2), (5, 6, ln_f - math.log(3.0)), (b, top, 0.0))
    floor = max(abs(y / n_ln_n - _sqrt_one_minus(x / top))
                for lo, hi, y in ends for x in (lo, hi)) - _BOUND_SLACK
    prefix = max((ln_f + math.log(a_max)) / n_ln_n - _sqrt_one_minus((n + 1) / top),
                 _sqrt_one_minus(6 / top) - (ln_f + math.log(a_min)) / n_ln_n)
    if prefix >= floor:
        return top
    n_ln_2 = n * _LN2
    s = top - 3  # sum[q0..n] at q0 = 3
    for q0 in range(3, n + 1):
        hi = (n_ln_2 + math.lgamma(q0)) / n_ln_n - _sqrt_one_minus(min(s + q0, b) / top)
        lo = _sqrt_one_minus((s + 1) / top) - lows[q0] / n_ln_n
        if hi >= floor or lo >= floor:
            return top
        s -= q0
    return 5


def _srec_cuts(n_min: int, n_max: int) -> Iterator[int]:
    """The ``_srec_cut`` of each n in [n_min, n_max], top for n < 6, from one sweep of ``_normalized_rows``.

    Row m = n - 1 completes the run of q0 = n, whose least family bound
    (m-1)! min_r [D_m(r+1) + m D_m(r+1+q0)] it gives in O(m), and
    a_{n-1} = D_m(n); so the cut of n is read when that row arrives.
    """
    lows = [0.0] * 4  # ln of each run's least family bound, by q0; 1 at q0 = 3
    a_min, a_max = math.inf, 0.0
    for m, d in _normalized_rows(n_max - 1):
        n = m + 1
        if m >= 3:  # r + 1 = 1..m, and r + 1 + q0 = n + 1..2n - 1
            least = min(map(add, d[1:n], map(mul, repeat(m), d[n + 1:2 * n])))
            lows.append(math.lgamma(m) + math.log(least))
        if n >= 6:
            a_min, a_max = min(a_min, d[n]), max(a_max, d[n])
        if n >= n_min:
            yield _srec_cut(n, lows, a_min, a_max) if n >= 6 else srec_max(n)


def _reports(stat: str, n_min: int, n_max: int) -> list[DeviationReport]:
    """``tau_series`` without its argument checks."""
    ns = range(n_min, n_max + 1)
    cuts = repeat(1) if stat == REC else _srec_cuts(n_min, n_max)
    f = math.factorial(n_min - 1)  # (n-1)!, the row's first entry
    reports = []
    for n, cut in zip(ns, cuts):
        # c(n, 1), or C(n, k) = (n-1)! a_{k-1} for k <= min(5, n + 1); a cut
        # inside it is 1 (rec, every n: module docstring), 5 (srec, n >= 6)
        # or top = 3 = n + 1 (srec, n = 2)
        prefix = (0, f) if stat == REC else (0, f, 0, f, f // 2, f // 3)
        row = prefix[:cut + 1] if cut < len(prefix) else _row(n, stat)
        reports.append(_sup_from_row(n, stat, row))
        f *= n
    return reports


def sup_deviation(n: int, stat: str) -> DeviationReport:
    """Exact sup over [0, 1] of |scaled curve - target|, and tau = sup * ln n.

    The report is the one from evaluating every constant segment at both
    endpoints, the right one standing in for the one-sided limit, so no
    grid can under-report; a value below 1 raises ValueError.  The scan
    reads the count row of (n, stat) only up to a cut.  For rec the cut
    is k = 1 for every n, a theorem of the module docstring: no middle
    segment k >= 2 reaches the deviation at x = 0, so the scan reads
    (n-1)! alone.  For srec the prefix and run bounds, read from one float
    sweep of normalized rows kept to k <= 2n - 1, cut at k = 5 for every
    n from 6 to 1200, so it reads (n-1)!, (n-1)!/2 and (n-1)!/3.  A row
    shorter than top + 1 is a certified prefix, and ``_reports`` picks
    it: the entries read off (n-1)! up to a cut that falls among them,
    else the whole count row, which the scan reads one segment at a time.
    The entries past the cut sit on segments that deviate by strictly
    less than the sup, by a gap far above the scan's rounding (rec) or
    with the slack covering the bounds' rounding (srec), so the report
    is the full row's (module docstring).
    ``tau_series`` scans a range of n.

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

    One pass over n holds (n-1)!, a running product, and reads each
    n's cut, as ``sup_deviation`` says; ``_reports`` hands the scan the
    prefix of (n-1)! up to that cut, or the whole row when the cut falls
    past the prefix.  For srec the cuts come from one sweep of normalized
    rows, kept to k <= 2 n_max - 1 in one float list updated in place;
    row n - 1 completes the bounds of n.  For rec every cut is k = 1.
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
