"""
The minimum product m(n, k) over admissible record-position tuples.

A tuple (v_1, ..., v_r) is admissible for (k, n) when v_1 = 1, r <= n,
v_1 < v_2 < ... < v_r <= n and v_1 + ... + v_r = k; such a tuple exists
iff k is a feasible srec value, i.e. k != 2 and k != n(n+1)/2 - 1.
m(n, k) is the smallest product v_1 * ... * v_r over admissible tuples.
It controls two-sided bounds on the srec counts C(n, k), so it has to
be exact: the dynamic program below compares big-integer products
directly, never logs, because ties and hairline margins (2v versus
v + 2) decide real witnesses.

The DP keeps one value row (the minimal products) plus, for each j,
bits saying whether j is taken; the witness is backtracked from those
bits alone.  Each call fills one band of cells and keeps nothing: at
level j, the sums s that {j, ..., n} can form and that {2, ..., j-1}
can still lift into the window of sums the call asks for.  A single k
(min_product) costs about k^2/2 big-integer products for k <= n, at
most about 0.29 of the full table's n^3/3 at k near n(n+1)/4, and
almost nothing at k near n(n+1)/2.  A sweep names its k up front
(iter_min_products) and builds one window from min(ks) - 1 to
max(ks) - 1; over every k it is the full table, n^3/3 products, O(n^2)
big integers and O(n^3) bits (under 8 MB of bits at the cap).  That
table caps n at EXTREMAL_LIMIT = 500, checked before anything is
allocated.

For k <= n the minimum is k - 1, realized by (1, k-1).  For larger k
the threshold index i_0(n, k), the greatest i with
k - 1 >= n + (n-1) + ... + (n-i), squeezes m(n, k) between
Gamma(n+1)/Gamma(n-i_0) and that times e^n, which in turn brackets
C(n, k) between Gamma(n-i_0)/(n e^n) and 2^n Gamma(n-i_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .tables import srec_max
from .temme import log_gamma

# min_product fills only the band of sums that can reach k - 1, at most
# about 0.29 of n^3/3 products; the cap is set by the full table, which a
# sweep over every k builds: about n^3/3 products and n^3/2 bits
EXTREMAL_LIMIT = 500

_BITS = bytes.maketrans(b"\0\1", b"01")


@dataclass(frozen=True)
class ExtremalResult:
    """m(n, k) together with one admissible tuple realizing it."""

    n: int
    k: int
    m: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class GammaBounds:
    """Log-domain squeeze of m(n, k); the gap log_upper - log_lower is n."""

    i0: int
    log_lower: float
    log_upper: float


def _check_feasible(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXTREMAL_LIMIT:
        raise ValueError(f"the minimum-product DP is limited to n <= {EXTREMAL_LIMIT}, got {n}")
    top = srec_max(n)
    if not 1 <= k <= top:
        raise ValueError(f"k={k} outside [1, {top}] for n={n}")
    if k == 2 or k == top - 1:
        raise ValueError(f"k={k} is infeasible for n={n}: no admissible tuple exists")


def _dp_table(
    n: int, limit: int, low: int = 0
) -> tuple[list[int | None], list[int]]:
    """Subset-sum DP over {2, ..., n} for the window of sums [low, limit].

    ``best[s]`` is the minimal product of a subset of {2, ..., n} summing
    to s (None when no subset does; the empty one gives best[0] = 1).
    Bit s of ``taken[j]`` is set when some optimal subset of {j, ..., n}
    summing to s contains j.  Elements are offered from n down to 2 and
    s runs downward, so best[s - j] still excludes j when it is read.

    Level j fills only its band: the sums that subsets of {j, ..., n}
    can reach (at most total - srec_max(j-1)) and that {2, ..., j-1},
    which adds at most srec_max(j-1) - 1, can still lift to low.  The
    band at level j reads best[s - j] with s - j >= low - srec_max(j) + 1,
    inside the band of level j + 1, so every cell of a band is exact:
    ``best[s]`` and every ``taken`` bit agree with the full table
    (low = 0, limit = n(n+1)/2 - 1) for s in [low, limit] and inside
    band j, and ``taken[j]`` is zero below band j.  The backtrack of
    iter_min_products from any s in [low, limit] stays inside the
    bands.  With low = 0 this is the prefix table, about limit^2/2
    cells when limit < n; a single sum (low = limit = k - 1) costs at
    most about 0.29 n^3/3 cells, at k near n(n+1)/4, and few near
    n(n+1)/2.
    The ``<=`` keeps j on ties, so the backtrack can pick the
    lexicographically smallest witness.  No (j, s) with optimal subsets
    both with and without j was found for n <= 120 (``<`` gives the
    same witnesses there), so the rule is a safeguard that no test can
    tell apart from ``<``.
    """
    total = srec_max(n)
    best: list[int | None] = [None] * (limit + 1)
    best[0] = 1
    taken = [0] * (n + 1)
    for j in range(n, 1, -1):
        rest = srec_max(j - 1)  # {2, ..., j-1} adds at most rest - 1
        top = min(limit, total - rest)
        bottom = max(j, low - rest + 1)
        if top < bottom:
            continue
        mark = bytearray(top - bottom + 1)
        for s in range(top, bottom - 1, -1):
            reach = best[s - j]
            if reach is not None:
                cand = reach * j
                cur = best[s]
                if cur is None or cand <= cur:
                    best[s] = cand
                    mark[s - bottom] = 1
        taken[j] = int(mark[::-1].translate(_BITS), 2) << bottom
    return best, taken


def min_product(n: int, k: int) -> ExtremalResult:
    """Exact m(n, k) with a witness, by subset-sum DP over {2, ..., n}.

    The single-sum sweep of :func:`iter_min_products`: it fills only the
    cells from which the sum k - 1 is still reachable, about k^2/2
    products for k <= n, at most about 0.29 of the full table's n^3/3,
    at k near n(n+1)/4, and few for k near n(n+1)/2.  Nothing is kept
    between calls, so a loop over many k at one n pays a band each
    time; such a loop names its k up front to :func:`iter_min_products`.

    >>> min_product(6, 12)
    ExtremalResult(n=6, k=12, m=30, witness=(1, 5, 6))
    >>> min_product(10, 7).witness
    (1, 6)
    """
    return next(iter_min_products(n, (k,)))


def iter_min_products(n: int, ks: Iterable[int]) -> Iterator[ExtremalResult]:
    """m(n, k) with a witness for each k of ``ks``, in the order given.

    Every k is checked, when the first result is requested, before
    anything is allocated; then one DP window covers the sums
    min(ks) - 1 .. max(ks) - 1, and each result is backtracked from it.
    The results equal those of :func:`min_product` one k at a time; a
    sweep over every feasible k at one n builds the full table once,
    about n^3/3 products.  If several tuples share the minimal product,
    the lexicographically smallest one is returned: the backtrack walks
    elements upward and keeps j whenever some optimal subset contains
    it.  Such ties were not found for n <= 120, so this rule is a
    safeguard rather than a behaviour the tests can observe.

    >>> [(r.k, r.m, r.witness) for r in iter_min_products(6, (12, 4, 21))]
    [(12, 30, (1, 5, 6)), (4, 3, (1, 3)), (21, 720, (1, 2, 3, 4, 5, 6))]
    """
    ks = tuple(ks)
    for k in ks:
        _check_feasible(n, k)
    if not ks:
        return
    best, taken = _dp_table(n, max(ks) - 1, min(ks) - 1)
    for k in ks:
        s = k - 1
        witness = [1]
        for j in range(2, n + 1):
            if s == 0:
                break
            if taken[j] >> s & 1:
                witness.append(j)
                s -= j
        yield ExtremalResult(n, k, best[k - 1], tuple(witness))


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
    return (2 * n - 2 - math.isqrt(4 * n * n + 4 * n - 8 * k + 8)) // 2


def gamma_bounds(n: int, k: int) -> GammaBounds:
    """Log-domain squeeze Gamma(n+1)/Gamma(n-i0) <= m(n,k) <= same * e^n."""
    _check_i0_domain(n, k)
    if k == srec_max(n) - 1:
        raise ValueError(f"k={k} is infeasible for n={n}")
    i0 = i0_closed(n, k)
    log_lower = log_gamma(n + 1.0) - log_gamma(float(n - i0))
    return GammaBounds(i0, log_lower, log_lower + n)


def srec_count_bounds(n: int, k: int) -> tuple[float, float]:
    """Log-domain bracket of the srec count C(n, k), 3 <= k <= n(n+1)/2.

    Dispatches on the case split: for 3 <= k <= n the bracket is
    n!/((k-1) n) <= C(n,k) <= 2^n n!/(k-1); for k >= n+1 it is
    Gamma(n-i0)/(n e^n) <= C(n,k) <= 2^n Gamma(n-i0).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    top = srec_max(n)
    if not 3 <= k <= top:
        raise ValueError(f"k={k} outside [3, {top}] for n={n}")
    if k == top - 1:
        raise ValueError(f"k={k} has count zero for n={n}; log bounds are undefined")
    ln2 = math.log(2.0)
    if k <= n:
        log_fact = log_gamma(n + 1.0)
        log_lower = log_fact - math.log(k - 1) - math.log(n)
        log_upper = n * ln2 + log_fact - math.log(k - 1)
    else:
        i0 = i0_closed(n, k)
        log_g = log_gamma(float(n - i0))
        log_lower = log_g - n - math.log(n)
        log_upper = n * ln2 + log_g
    return log_lower, log_upper


def format_witness(witness: Sequence[int]) -> str:
    """Witness tuples serialize as ``1+5+6``."""
    return "+".join(str(v) for v in witness)


def extremal_csv(results: Sequence[ExtremalResult]) -> str:
    """CSV document ``n,k,m,witness`` with m in decimal."""
    lines = ["n,k,m,witness"]
    lines.extend(f"{r.n},{r.k},{r.m},{format_witness(r.witness)}" for r in results)
    return "\n".join(lines) + "\n"
