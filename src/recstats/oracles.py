"""
Oracles: slow, independent routes to what the production modules compute fast.

Each reaches its answer by a road the production path does not take, so
agreement between the two means something: all n! permutations against
the row recurrences of :mod:`recstats.tables`, every subset of
{2, ..., n} against the minimum-product search, a bisect over partial sums
against the closed-form i0, sums of record-set weights against the count
rows, and 1/(u + j) summed term by term against the telescoped phi'.
The checks of :mod:`recstats.verify` compare the two routes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction

from .extremal import _check_i0_domain
from .perm import record_positions
from .tables import REC, SREC, CountTable, _check_n, srec_max
from .temme import _check_nm, _check_positive

# brute_force_tables enumerates n! permutations
BRUTE_FORCE_LIMIT = 9

# direct subset enumeration stays instantaneous up to here
ENUMERATION_LIMIT = 12


def brute_force_tables(n: int) -> tuple[CountTable, CountTable]:
    """Histograms of rec and srec over all n! permutations.

    Independent of the generating-function recurrences: only the record
    scan of :mod:`recstats.perm` is used.  Enumeration is capped at
    n <= 9.
    """
    _check_n(n)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    rec_hist = [0] * (n + 1)
    srec_hist = [0] * (srec_max(n) + 1)
    for values in itertools.permutations(range(1, n + 1)):
        positions = record_positions(values)
        rec_hist[len(positions)] += 1
        srec_hist[sum(positions)] += 1
    return (
        CountTable(n, REC, tuple(rec_hist)),
        CountTable(n, SREC, tuple(srec_hist)),
    )


def min_product_brute_force(n: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{k: (m(n, k), witness)} for every feasible k, from one pass over the subsets of {2, ..., n}.

    A subset s gives k = 1 + sum(s) and the tuple (1,) + s; the minimum
    is taken over (product, tuple) pairs, so ties go to the
    lexicographically smallest witness, as in ``extremal.min_product``.

    >>> min_product_brute_force(6)[12]
    (30, (1, 5, 6))
    """
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    for size in range(n):
        for chosen in itertools.combinations(range(2, n + 1), size):
            k = 1 + sum(chosen)
            candidate = (math.prod(chosen), (1,) + chosen)
            if k not in best or candidate < best[k]:
                best[k] = candidate
    return best


@functools.lru_cache(maxsize=8)
def _descending_sums(n: int) -> tuple[int, ...]:
    """n, n + (n-1), ..., n + (n-1) + ... + 1."""
    return tuple(itertools.accumulate(range(n, 0, -1)))


def i0_greedy(n: int, k: int) -> int:
    """Greatest i with k - 1 >= n + (n-1) + ... + (n-i), by a bisect.

    It searches the partial sums n, n + (n-1), ..., independently of the
    closed form; the last of them, n(n+1)/2, exceeds k - 1, so i <= n - 2.
    """
    _check_i0_domain(n, k)
    return bisect.bisect_right(_descending_sums(n), k - 1) - 1


def _check_enumeration_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"subset enumeration is limited to n <= {ENUMERATION_LIMIT}")


def _subset_weight(n: int, chosen: set[int]) -> Fraction:
    # weight of the record set {1} | chosen: prod 1/v over records times
    # prod (1 - 1/v) = (v-1)/v elsewhere; the common denominator is n!
    numerator = math.prod(v - 1 for v in range(2, n + 1) if v not in chosen)
    return Fraction(numerator, math.factorial(n))


def rec_prob_sum(n: int, k: int) -> Fraction:
    """P(rec = k) by direct enumeration of record-position sets.

    Out-of-range k gives probability 0.  Agrees with c(n,k)/n! exactly.

    >>> rec_prob_sum(3, 2)
    Fraction(1, 2)
    """
    _check_enumeration_n(n)
    if not 1 <= k <= n:
        return Fraction(0)
    total = Fraction(0)
    for chosen in itertools.combinations(range(2, n + 1), k - 1):
        total += _subset_weight(n, set(chosen))
    return total


def srec_prob_sum(n: int, k: int) -> Fraction:
    """P(srec = k) by enumeration of record sets with position sum k.

    Position 1 is forced, so subsets of {2, ..., n} are tested against
    sum k - 1.  Agrees with C(n,k)/n! exactly.

    >>> srec_prob_sum(3, 4)
    Fraction(1, 6)
    >>> srec_prob_sum(5, 2)
    Fraction(0, 1)
    """
    _check_enumeration_n(n)
    if not 1 <= k <= srec_max(n):
        return Fraction(0)
    total = Fraction(0)
    for r in range(0, n):
        for chosen in itertools.combinations(range(2, n + 1), r):
            if 1 + sum(chosen) == k:
                total += _subset_weight(n, set(chosen))
    return total


def phi_prime_direct(u: float, n: int, m: int) -> float:
    """phi'(u) by direct summation, the independent oracle for small n."""
    _check_positive(u, "u")
    _check_nm(n, m)
    return math.fsum(1.0 / (u + j) for j in range(1, n + 1)) - m / u
