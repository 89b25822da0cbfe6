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

Most segments cannot hold the sup, and a cheap bound skips them.  The
deviations of the first and last segments give a lower bound ``best``
on the sup.  The middle segments are cut into blocks of about sqrt(len)
segments, and each block of the row is sliced and bounded in one pass.
A value v of bit length b has (b - 1) ln 2 <= ln v < b ln 2, and bit
length never decreases as a positive int grows, so the bit lengths of
the block's smallest and largest values bracket every y = ln v / (n ln n)
in it between y_min and y_max.  A smallest value below 1 raises
big_ln's ValueError right there, before the block can be skipped (bit
lengths ignore sign).  Since the target T decreases, no endpoint in the
block deviates by more than max(y_max - T(x_end), T(x_start) - y_min).
A block is evaluated endpoint by endpoint only when that bound reaches
best - 1e-9.  The bound's terms carry a few ulps of rounding, and the
slack covers it many times over while they stay below 1e4; for count
rows, whose values are at most n!, they are at most 1.  A skipped
segment therefore deviates by strictly less than the sup, and the
report (sup, argmax, first maximum on ties) is the one the full scan
gives.  On top of the row, the scan holds one block's slice and the
segments of the kept blocks: O(sqrt(len)) memory when few blocks are
kept, as in count rows.

For srec the same threshold, best - 1e-9, decides before the row is
built how much of it to build.  Position j of a uniform permutation is
a record with probability 1/j, independently of the others, so the
permutations whose records sit exactly at {1} + S number
prod(j - 1 for j in U), U = {2, ..., n} - S, and

    C(n, k) = sum of prod(j - 1 for j in U) over S in {2, ..., n}, sum(S) = k - 1.

For 3 <= q <= n + 1 let F_q hold the S with [q..n] in S and q - 1 not
in S: q - 1 is the largest value S leaves out, so the F_q are disjoint.
Such an S is [q..n] plus a subset S' of {2, ..., q - 2}, and its term
is q - 2 times the term of S' in the row of q - 2, so F_q adds up to
(q - 2) C(q - 2, k - sum[q..n]), with C(m, j) = 0 off the row.  Every
k > n lies in the run of one q0 = n - i0(n, k) (``extremal``), k =
sum[q0..n] + 1 + r with 0 <= r <= q0 - 2, and F_q0 and F_q0+1 give

    C(n, k) >= (q0 - 2) C(q0 - 2, r + 1) + (q0 - 1) C(q0 - 1, r + 1 + q0).

The bound depends on (q0, r) alone, so its exact least value over each
run serves every n.  ``_run_minimum`` reads that of q0 from the rows of
q0 - 2 and q0 - 1, so one sweep of rows kept to k <= 2n - 1 has those
of all q0 <= n in hand when it reaches row n, and the scan of n reads
that same row.  The upper end on the run stays
``extremal._log_count_upper``, 2^n Gamma(q0).  Both ends are constant on a run and T decreases, so no
segment of the run deviates by more than max(hi/(n ln n) - T(x_end),
T(x_start) - lo/(n ln n)), read at the run's two ends.  ``_srec_cut``
walks the runs down from the top and ends the cut at the first run
whose bound reaches the threshold, the end segments here taken from
row[1] = (n-1)! and C(n, top) = 1.  Every run is below it for each n
from 2 to 1200 but 5, so ``sup_deviation`` and ``tau_series`` scan the
middle segments only up to k = n (up to 9 of 15 at n = 5), inside the
swept prefix; a cut past the prefix, at an n whose runs are not all
below the threshold, makes the scan build the whole row.  The entries
past the cut are never read: each of their segments deviates by
strictly less than the end segments, the slack covering the bounds'
rounding as above, so the report is the one the full row gives.

For rec the same threshold needs no row beyond k = 1.  Expanding
q(q+1)...(q+n-1) gives c(n, k) = e_{n-k}(1, 2, ..., n-1), the
elementary symmetric sum of degree n - k.  Its term k(k+1)...(n-1), of
the n - k largest factors, gives c(n, k) >= (n-1)!/(k-1)!.  Each term of
e_j(x) appears j! times in the expansion of (x_1 + x_2 + ...)^j, whose
other terms are nonnegative, so e_j(x) <= (sum x)^j / j! and
c(n, k) <= C(n, 2)^(n-k)/(n-k)!, where C(n, 2) = 1 + 2 + ... + (n-1).
Segment k covers [k/n, (k+1)/n) and T decreases, so it deviates by at
most the larger of

    below: T(k/n) - ln((n-1)!/(k-1)!)/(n ln n),
    above: ((n-k) ln C(n, 2) - ln (n-k)!)/(n ln n) - T((k+1)/n).

From k to k + 1 the first changes by (ln k - ln n)/(n ln n) < 0, so
over the middle k >= 2 it is largest at k = 2, where it is the first
segment's deviation at x = 0 less 2/n.  The second changes by
ln(2(n-k)/(n-1))/(n ln n), which is positive for k < (n+1)/2 and not
for k >= (n+1)/2, so over all k in [1, n] it is largest at
h = floor((n+1)/2) or h + 1 (both when n is odd).  ``_rec_bounds``
evaluates those three values, O(1) float operations per n.  The floor
is the first segment's deviation at x = 0, 1 - ln((n-1)!)/(n ln n),
less the slack: (n-1)! < n^(n-1) keeps that segment below T(1/n), and
c(n, n) = 1 deviates by 0 at x = 1.  ``_rec_cut`` reads ln((n-1)!) as
lgamma(n), so the cut needs no factorial; the few ulps by which it may
differ from the scan's log of (n-1)! sit inside the slack as the
rounding above does.  When the three values lie below the floor, no
middle k >= 2 can hold the sup, and the sup is the first segment's
deviation at x = 0: no row is built, and the scan reads only (n-1)!, a
running product over the range of n seeded with ``math.factorial``.
The margin is 2/n below and about 1/(2 ln n) above; the check holds for
every n from 2 to 10^6 and at the n sampled up to 10^9.  From n = 2 * 10^9 on, 2/n no
longer clears the slack and the cut is the whole row.  The curves and
the tables keep full rows.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .tables import (
    REC,
    SREC,
    big_ln,
    iter_srec_rows,
    rec_table,
    srec_max,
    srec_table,
)

# rows stop at k = 2 n_max - 1 (module docstring); the cap stays until one
# cost model sets every cap
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


def _segment_plan(
    n: int, stat: str, row: Sequence[int], k_max: int | None = None
) -> tuple[tuple[float, float, int], int, range, tuple[float, float, int]]:
    """(first segment, top, middle k range, last segment) of the step curve, on ``_cuts``.

    Middle segment k is (k/top, (k+1)/top, row[k]); the first and last
    segments are the end branches row[1] and row[top].  A ``k_max`` below
    top (a cut of ``_rec_cut`` or ``_srec_cut``) ends the middle range
    at k_max; ``row`` then need only reach k_max, and the last segment
    takes row[top] = 1 (c(n, n) = C(n, top) = 1).
    """
    top, a, b = _cuts(n, stat)
    if k_max is None or k_max >= top:
        stop, last = b, row[top]
    else:
        stop, last = min(b, k_max + 1), 1
    return (0.0, a / top, row[1]), top, range(a, stop), (max(a, b) / top, 1.0, last)


def _segments(n: int, stat: str, row: Sequence[int]) -> list[tuple[float, float, int]]:
    """Constant segments (x_lo, x_hi, value) covering [0, 1], in order.

    ``row`` is the dense coefficient row, indexed by k.
    """
    first, top, middle, last = _segment_plan(n, stat, row)
    segs = [first]
    segs.extend((k / top, (k + 1) / top, row[k]) for k in middle)
    segs.append(last)
    return segs


def _exact_scan(
    target: Callable[[float], float], n_ln_n: float,
    segments: Iterable[tuple[float, float, int]],
) -> tuple[float, float]:
    """(largest endpoint deviation, its first x) over the given segments, in order."""
    best_dev = -1.0
    best_x = 0.0
    for x_lo, x_hi, value in segments:
        y = big_ln(value) / n_ln_n
        for x in (x_lo, x_hi):
            dev = abs(y - target(x))
            if dev > best_dev:
                best_dev = dev
                best_x = x
    return best_dev, best_x


def _floor(target: Callable[[float], float], n_ln_n: float, first, last) -> float:
    """The end segments' largest deviation less the slack; a block bounded below it is skipped."""
    return _exact_scan(target, n_ln_n, (first, last))[0] - _BOUND_SLACK


def _sup_from_row(
    n: int, stat: str, row: Sequence[int], k_max: int | None = None
) -> DeviationReport:
    if k_max is not None and k_max >= len(row):  # a cut past the row in hand
        row = _row(n, stat)
    target = _target(stat)
    n_ln_n = n * math.log(n)
    first, top, middle, last = _segment_plan(n, stat, row, k_max)
    floor = _floor(target, n_ln_n, first, last)
    size = math.isqrt(len(middle)) + 1
    segments = [first]
    for k_lo in range(middle.start, middle.stop, size):
        k_hi = min(k_lo + size, middle.stop)
        block = row[k_lo:k_hi]
        low, high = min(block), max(block)
        # big_ln's error, raised before the bound so that no skipped block hides it
        if low < 1:
            raise ValueError("value must be a positive integer")
        bound = max(
            high.bit_length() * _LN2 / n_ln_n - target(k_hi / top),
            target(k_lo / top) - (low.bit_length() - 1) * _LN2 / n_ln_n,
        )
        if bound >= floor:
            segments.extend((k / top, (k + 1) / top, row[k]) for k in range(k_lo, k_hi))
    segments.append(last)
    best_dev, best_x = _exact_scan(target, n_ln_n, segments)
    return DeviationReport(n, stat, best_dev, best_dev * math.log(n), best_x)


def _run_minimum(q0: int, prev: list[int], row: list[int]) -> int:
    """The least family bound of the run of q0 >= 3, over the run's r in [0, q0-2].

    The family bound of (q0, r) is (q0-2) C(q0-2, r+1) + (q0-1) C(q0-1, r+1+q0)
    (module docstring).  ``prev`` is the srec row of q0 - 2 and ``row``
    that of q0 - 1, each needed only up to k <= q0 - 1 and k <= 2 q0 - 1;
    a row shorter than that is whole, and C(m, k) = 0 past its top.  At
    q0 = 3 only r = 0 counts: r = 1 is k = top - 1, the zero coefficient,
    which no middle segment reads.
    """
    width = q0 - 1 if q0 > 3 else 1
    tail = row[q0 + 1:q0 + 1 + width]
    tail.extend([0] * (width - len(tail)))  # C(m, k) = 0 past k = top(m)
    return min(map(add, map(mul, repeat(q0 - 2), prev[1:width + 1]),
                   map(mul, repeat(q0 - 1), tail)))


def _srec_cut(n: int, row: Sequence[int], lows: Sequence[float]) -> int:
    """The last k of the srec row of n that the sup scan must read; top if it must read all.

    Every middle k > n lies in the run of one q0 = n - i0 in [3, n]
    (module docstring): k = s + 1 + r with s = sum[q0..n] and
    0 <= r <= q0 - 2.  On the run, ln C(n, k) lies between lo =
    ``lows[q0]``, the log of the run's ``_run_minimum``, and hi = n ln 2 +
    ln Gamma(q0), the upper end ``extremal._log_count_upper``.  So no
    segment of the run deviates by more than max(hi/(n ln n) - T(x_end),
    T(x_start) - lo/(n ln n)), with x_start = (s+1)/top and x_end the
    right end of the run's last middle segment.  Runs bounded below the
    floor, the exact end segments (row[1] = (n-1)! and C(n, top) = 1)
    less ``_BOUND_SLACK``, cannot hold the sup; walking down from the top,
    the first run that reaches it ends the cut, and the cut is n when none
    does.
    """
    top, _, b = _cuts(n, SREC)
    n_ln_n = n * math.log(n)
    first, _, _, last = _segment_plan(n, SREC, row, 1)
    floor = _floor(_sqrt_one_minus, n_ln_n, first, last)
    n_ln_2 = n * _LN2
    s = top - 3  # sum[q0..n] at q0 = 3
    for q0 in range(3, n + 1):
        hi = (n_ln_2 + math.lgamma(q0)) / n_ln_n - math.sqrt(1.0 - min(s + q0, b) / top)
        lo = math.sqrt(1.0 - (s + 1) / top) - lows[q0] / n_ln_n
        if hi >= floor or lo >= floor:
            return top if q0 == 3 else s + q0 - 1
        s -= q0
    return n


def _srec_rows(n_min: int, n_max: int) -> Iterator[tuple[int, list[int], int]]:
    """(n, srec row of n, its ``_srec_cut``) for n in [n_min, n_max], from one sweep.

    The rows are kept to k <= 2 n_max - 1, enough for every run minimum
    and for the cut k = n (9 at n = 5).  Row m, with the prefix k <= m
    of row m - 1, gives the ``_run_minimum`` of q0 = m + 1, so the
    minima of every q0 <= n are in hand when row n arrives.  Only their
    logs are kept: each minimum kept as an int pins the allocator's
    memory of its row (3 MB of peak RSS at n_max = 400).
    """
    lows = [0.0, 0.0, 0.0]  # indexed by q0
    prev = [0, 1]
    for n, row in iter_srec_rows(n_max, k_max=2 * n_max - 1):
        if n >= n_min:
            yield n, row, _srec_cut(n, row, lows)
        if 2 <= n < n_max:
            lows.append(big_ln(_run_minimum(n + 1, prev, row)))
        prev = row[:n + 2]


def _rec_bounds(n: int) -> tuple[float, float]:
    """(lower, upper): the largest deviation below and above the target on any rec middle segment k >= 2.

    Read from the closed-form bounds (n-1)!/(k-1)! <= c(n, k) <=
    C(n, 2)^(n-k)/(n-k)! at the k where each side peaks (module
    docstring): k = 2 below, k = h or h + 1 above, h = floor((n+1)/2).
    """
    n_ln_n = n * math.log(n)
    # ln((n-1)!/(k-1)!) at k = 2
    lower = _one_minus(2 / n) - (math.lgamma(n) - math.lgamma(2)) / n_ln_n
    ln_pairs = math.log(n * (n - 1) // 2)
    h = (n + 1) // 2
    upper = max(
        ((n - k) * ln_pairs - math.lgamma(n - k + 1)) / n_ln_n - _one_minus((k + 1) / n)
        for k in (h, h + 1)
    )
    return lower, upper


def _rec_cut(n: int) -> int:
    """The last k of the rec row of n that the sup scan must read: 1 when ``_rec_bounds`` certify, else n.

    The floor is the first segment's deviation at x = 0, the larger of
    the end segments', with ln((n-1)!) read as lgamma(n), less
    ``_BOUND_SLACK`` (module docstring).
    """
    floor = 1.0 - math.lgamma(n) / (n * math.log(n)) - _BOUND_SLACK
    return 1 if max(_rec_bounds(n)) < floor else n


def _rec_rows(n_min: int, n_max: int) -> Iterator[tuple[int, tuple[int, int], int]]:
    """(n, (0, (n-1)!), its ``_rec_cut``) for n in [n_min, n_max]: the row up to k = 1."""
    factorial = math.factorial(n_min - 1)
    for n in range(n_min, n_max + 1):
        yield n, (0, factorial), _rec_cut(n)
        factorial *= n


def _reports(stat: str, n_min: int, n_max: int) -> list[DeviationReport]:
    """``tau_series`` without its argument checks."""
    rows = _rec_rows(n_min, n_max) if stat == REC else _srec_rows(n_min, n_max)
    return [_sup_from_row(n, stat, row, cut) for n, row, cut in rows]


def sup_deviation(n: int, stat: str) -> DeviationReport:
    """Exact sup over [0, 1] of |scaled curve - target|, and tau = sup * ln n.

    The report is the one from evaluating every constant segment at both
    endpoints, the right one standing in for the one-sided limit, so no
    grid can under-report; blocks of about sqrt(len) segments that
    provably cannot hold the sup, by the bit lengths of their smallest
    and largest values, are skipped (see the module docstring).  A value
    below 1 raises ValueError, checked per block before any block is
    skipped.  The scan reads the count row of (n, stat) only up to the
    cut of the bounds on its counts: for srec the run bounds, k = n for
    every n from 6 to 1200, read from one sweep of rows kept to
    k <= 2n - 1; for rec the closed-form bounds, k = 1 for every n from
    2 to 10^6 checked, so it reads (n-1)! alone and builds no row.  A
    cut past that prefix builds the whole row.  On the row the scan
    allocates O(sqrt(len)) memory.  The entries past the cut sit on
    segments that deviate by strictly less than the end segments do, so
    they cannot hold the sup and the report is the full row's (module
    docstring).  ``tau_series`` scans a range of n.

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

    One pass over n yields each row with its cut, as ``sup_deviation``
    says, and each n reads its row only up to its own cut.  For srec
    the rows come from one sweep, kept to k <= 2 n_max - 1, in one list
    updated in place; each row gives a run minimum for the cuts of the
    rows after it, and is scanned before the next one overwrites it, so
    one row is alive at a time.  For rec each n reads only (n-1)!, a
    running product, beside the closed-form ``_rec_cut``.
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
