"""
The minimum product m(n, k) over admissible record-position tuples.

A tuple (v_1, ..., v_r) is admissible for (k, n) when v_1 = 1, r <= n,
v_1 < v_2 < ... < v_r <= n and v_1 + ... + v_r = k; such a tuple exists
iff k is a feasible srec value, i.e. k != 2 and k != n(n+1)/2 - 1.
m(n, k) is the smallest product v_1 * ... * v_r over admissible tuples,
i.e. the least product of a subset S of {2, ..., n} with sum k - 1.  It
controls two-sided bounds on the srec counts C(n, k), so it has to be
exact: candidates are compared as big-integer products, never logs,
because ties and hairline margins (2v versus v + 2) decide real
witnesses.

Only sets of one shape can be optimal.  Take a < b in S with a >= 3,
a - 1 not in S, b <= n - 1 and b + 1 not in S.  Trading {a, b} for
{a - 1, b + 1} keeps the sum and keeps the elements distinct, and
changes the product of the pair by (a - 1)(b + 1) - ab = a - b - 1 < 0,
so S was not optimal.  In an optimal S, then, every element that can
move down lies above every element that can move up.  Split S into
maximal runs of consecutive integers.  The bottom of a run can move
down unless the run starts at 2, and its top can move up unless the run
ends at n.  So at most one run starts above 2 and ends below n, and it
is a single element; a run starting at 2 lies below it and a run ending
at n above it.  Every optimal S is therefore

    S = [2..p] + {x} + [q..n],  p < x < q,

where any of the three parts may be empty (p = 1, x absent, q = n + 1).

For one k, every optimal set is one of at most nine sets of this shape.
Write an optimal S in normal form: [q..n] is the longest run of S that
ends at n (q = n + 1 if n is not in S), and [2..p] the longest run that
starts at 2 below q (p = 1 if there is none), so q - 1 is not in S, and
p + 1 is not in S unless S = [2..n], where p = 1 and q = 2.  Let q0 = n - i0(n, k) be the least q with
sum[q..n] <= k - 1 (i0 is defined below; q0 = n + 1 for k <= n).

* p <= 3.  If p >= 4, then S != [2..n], so p + 1 is not in S, and
  p + 1 < q since q - 1 is not in S, so p + 1 <= n.  Trading {2, p - 1}
  for {p + 1} keeps the sum, and 2(p - 1) > p + 1, so S was not optimal.
* q >= q0, because sum[q..n] <= k - 1 < sum[q0-1..n].
* q <= q0 + 2.  Otherwise [q0..q-1] holds q - 1, q - 2 and q - 3, so
  r = k - 1 - sum[q..n] >= 3q - 6.  But r = sum[2..p] + x with p <= 3
  and x <= q - 2 (q - 1 is not in S), so r <= 5 + (q - 2).  That gives
  q <= 4, while q >= q0 + 3 >= 5, as sum[1..n] > k - 1 makes q0 >= 2.

Each (p, q) leaves one x = k - 1 - sum[q..n] - sum[2..p], which must be
0 (no middle element) or lie strictly between p and q, so min_product
tries at most nine sets, each of product p! * q (q+1) ... n * x.  That
is a few products of at most log2 n! bits, and nothing is kept between
calls.  Every optimal set is one of the candidates, so the least
(m, witness) pair over the candidates is m(n, k) with the
lexicographically smallest optimal witness.

For k <= n the minimum is k - 1, realized by (1, k-1).  For larger k
the threshold index i_0(n, k), the greatest i with
k - 1 >= n + (n-1) + ... + (n-i), squeezes m(n, k) between
L = Gamma(n+1)/Gamma(n-i_0) and that times e^n, which in turn brackets
C(n, k) between Gamma(n-i_0)/(n e^n) and 2^n Gamma(n-i_0).  That is the
paper's squeeze, and ``gamma_bounds`` and ``srec_count_bounds`` return
it unchanged.

The squeeze is in fact L <= m(n, k) < nL for k > n.  Take q0 = n - i_0
and r = k - 1 - sum[q0..n], so 0 <= r < q0 - 1 by the definition of
i_0.  If r >= 2, the set {r} + [q0..n] is admissible, so m <= rL < nL.
If r = 0, [q0..n] gives m = L.  If r = 1, then q0 >= 4 (q0 = 3 is the
infeasible k = n(n+1)/2 - 1), and [q0+1..n] + {2, q0 - 1} gives
m <= 2L(q0 - 1)/q0 < 2L <= nL.  That sharpens the lower end of the
count bracket.  Position j of a uniform permutation is a record with
probability 1/j, independently of the others, so the permutations whose
records sit exactly at {1} + S, S a subset of {2, ..., n}, number
(n-1)!/prod(v - 1 for v in S) >= n!/(n prod(S)).  The set of m(n, k)
alone then gives C(n, k) >= n!/(n m(n, k)) > Gamma(n-i_0)/n^2, a factor
e^n/n above the paper's lower end.  That keeps one term of C(n, k); the
``scaling`` module docstring sums two disjoint families of sets
instead, a bound about e^10 sharper in the middle of the row at
n = 300, on which the srec sup scan is certified.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .tables import srec_max

# one call costs a few products of at most log2 n! bits, so that cost does
# not set this cap; the cap stays until one cost model sets every cap
EXTREMAL_LIMIT = 500

_LN2 = math.log(2.0)


class ExtremalResult(NamedTuple):
    """m(n, k) together with one admissible tuple realizing it.

    A NamedTuple: it equals the plain tuple of its fields; copy it with ``_replace``.
    """

    n: int
    k: int
    m: int
    witness: tuple[int, ...]


class GammaBounds(NamedTuple):
    """Log-domain squeeze of m(n, k); the gap log_upper - log_lower is n.

    A NamedTuple: it equals the plain tuple of its fields; copy it with ``_replace``.
    """

    i0: int
    log_lower: float
    log_upper: float


def _check_feasible(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXTREMAL_LIMIT:
        raise ValueError(f"the minimum product is limited to n <= {EXTREMAL_LIMIT}, got {n}")
    top = srec_max(n)
    if not 1 <= k <= top:
        raise ValueError(f"k={k} outside [1, {top}] for n={n}")
    if k == 2 or k == top - 1:
        raise ValueError(f"k={k} is infeasible for n={n}: no admissible tuple exists")


def min_product(n: int, k: int) -> ExtremalResult:
    """Exact m(n, k) with a witness, from the at most nine candidate sets.

    The candidates are the sets [2..p] + {x} + [q..n] of the module
    docstring with p in {1, 2, 3} and q in {q0, q0 + 1, q0 + 2}.  For
    k <= n, q0 = n + 1 and the least candidate is {k - 1}: m = k - 1
    with witness (1, k - 1), or (1,) at k = 1.  If several tuples share
    the minimal product, the lexicographically smallest one is returned,
    as in ``oracles.min_product_brute_force``; no (n, k) with two optimal
    sets was found for n <= 120, so no test can observe this rule.

    >>> min_product(6, 12)
    ExtremalResult(n=6, k=12, m=30, witness=(1, 5, 6))
    >>> min_product(10, 7).witness
    (1, 6)
    """
    _check_feasible(n, k)
    q0 = n - _i0(n, k)
    candidates = []
    for q in range(q0, min(q0 + 2, n + 1) + 1):
        r = k - 1 - (n + q) * (n + 1 - q) // 2  # the sum left for [2..p] + {x}
        for p in range(1, min(3, q - 1) + 1):
            x = r + 1 - p * (p + 1) // 2
            if x == 0 or p < x < q:
                m = math.factorial(p) * math.perm(n, n + 1 - q) * (x or 1)
                middle = (x,) if x else ()
                candidates.append((m, (1, *range(2, p + 1), *middle, *range(q, n + 1))))
    m, witness = min(candidates)
    return ExtremalResult(n, k, m, witness)


def _i0(n: int, k: int) -> int:
    """:func:`i0_closed` without its domain checks.

    Exact for any n >= 1 and 1 <= k <= n(n+1)/2; it is -1 for k <= n.
    """
    return (2 * n - 2 - math.isqrt(4 * n * n + 4 * n - 8 * k + 8)) // 2


def _check_i0_domain(n: int, k: int) -> None:
    if n < 4:
        raise ValueError("i0 requires n >= 4")
    if not n + 1 <= k <= srec_max(n):
        raise ValueError(f"i0 requires n+1 <= k <= n(n+1)/2, got n={n}, k={k}")


def i0_closed(n: int, k: int) -> int:
    """Closed form floor((2n - 1 - sqrt(R)) / 2), R = 4n^2 + 4n - 8k + 9.

    Evaluated exactly as (2n - 2 - isqrt(R - 1)) // 2.  R is odd, so when
    it is a perfect square, as at both ends of the k range (k = n+1 and
    k = n(n+1)/2, the classic spot where a float floor goes off by one),
    its root is odd and isqrt(R - 1) is that root minus 1; otherwise
    isqrt(R - 1) = floor(sqrt(R)).  Both cases give the floor.

    >>> [i0_closed(10, k) for k in (11, 27, 55)]
    [0, 1, 8]
    """
    # _check_i0_domain inlined: the checks call this millions of times
    if n < 4:
        raise ValueError("i0 requires n >= 4")
    if not n + 1 <= k <= n * (n + 1) // 2:
        raise ValueError(f"i0 requires n+1 <= k <= n(n+1)/2, got n={n}, k={k}")
    return _i0(n, k)


def gamma_bounds(n: int, k: int) -> GammaBounds:
    """Log-domain squeeze Gamma(n+1)/Gamma(n-i0) <= m(n,k) <= same * e^n."""
    _check_i0_domain(n, k)
    if k == srec_max(n) - 1:
        raise ValueError(f"k={k} is infeasible for n={n}")
    i0 = i0_closed(n, k)
    log_lower = math.lgamma(n + 1.0) - math.lgamma(float(n - i0))
    return GammaBounds(i0, log_lower, log_lower + n)


def _check_count_domain(n: int, k: int) -> None:
    if n < 3:
        raise ValueError("n must be >= 3")
    top = srec_max(n)
    if not 3 <= k <= top:
        raise ValueError(f"k={k} outside [3, {top}] for n={n}")
    if k == top - 1:
        raise ValueError(f"k={k} has count zero for n={n}; log bounds are undefined")


def srec_count_bounds(n: int, k: int) -> tuple[float, float]:
    """Log-domain bracket of the srec count C(n, k), 3 <= k <= n(n+1)/2.

    Dispatches on the case split: for 3 <= k <= n the bracket is
    n!/((k-1) n) <= C(n,k) <= 2^n n!/(k-1); for k >= n+1 it is
    Gamma(n-i0)/(n e^n) <= C(n,k) <= 2^n Gamma(n-i0).
    """
    _check_count_domain(n, k)
    if k <= n:
        log_lower = math.lgamma(n + 1.0) - math.log(k - 1) - math.log(n)
    else:
        log_lower = math.lgamma(float(n - _i0(n, k))) - n - math.log(n)
    return log_lower, _log_count_upper(n, k)


def _log_count_upper(n: int, k: int) -> float:
    """ln of the upper end of ``srec_count_bounds``, without its domain checks.

    The end is 2^n n!/(k-1) for k <= n and 2^n Gamma(n-i0) for k > n; both
    are non-increasing in k, since i0 is non-decreasing in k.  Proof of
    the end: C(n, k) sums, over the at most 2^(n-1) record sets S of the
    module docstring, the product of j - 1 over the j in
    U = {2, ..., n} - S, so it is at most 2^(n-1) times the largest
    term.  That term is at most (n-1)! <= n!/(k-1) for k <= n.  For k > n,
    U sums to at most 2 + 3 + ... + (n-i0-1), and distinct integers >= 2
    with that sum have product at most (n-i0-1)! = Gamma(n-i0), the
    classic maximal product of distinct parts.
    """
    if k <= n:
        return n * _LN2 + math.lgamma(n + 1.0) - math.log(k - 1)
    return n * _LN2 + math.lgamma(float(n - _i0(n, k)))


def format_witness(witness: Sequence[int]) -> str:
    """Witness tuples serialize as ``1+5+6``."""
    return "+".join(str(v) for v in witness)


def extremal_csv(results: Sequence[ExtremalResult]) -> str:
    """CSV document ``n,k,m,witness`` with m in decimal."""
    lines = ["n,k,m,witness"]
    lines.extend(f"{r.n},{r.k},{r.m},{format_witness(r.witness)}" for r in results)
    return "\n".join(lines) + "\n"
