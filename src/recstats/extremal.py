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

The DP fills the sums s = 0..k-1 only: it keeps one value row of k
entries (the minimal products) plus, for each j, k bits saying whether
j is taken; the witness is backtracked from those bits alone.  A
prefix of the table is exact, because best[s] reads only smaller sums.
So k <= n costs about k^2/2 big-integer products, and the worst case,
k near n(n+1)/2, costs about n^3/3 products and O(n^2) big integers
plus O(n^3) bits (under 8 MB of bits at the cap).  That worst case
caps n at EXTREMAL_LIMIT = 500, checked before anything is allocated.
One table per n is cached for the 8 most recent n; a call that needs
a larger sum than the cached table holds rebuilds it to at least twice
the cached limit, so a sweep over every k at one n costs a few builds.

For k <= n the minimum is k - 1, realized by (1, k-1).  For larger k
the threshold index i_0(n, k), the greatest i with
k - 1 >= n + (n-1) + ... + (n-i), squeezes m(n, k) between
Gamma(n+1)/Gamma(n-i_0) and that times e^n, which in turn brackets
C(n, k) between Gamma(n-i_0)/(n e^n) and 2^n Gamma(n-i_0).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from .tables import srec_max
from .temme import log_gamma

# min_product's DP fills sums up to k - 1; the cap is set by its worst
# case, k near n(n+1)/2: about n^3/3 big-integer products and n^3/2 bits
EXTREMAL_LIMIT = 500
# DP tables kept, one per n
_TABLES_KEPT = 8

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


def _dp_table(n: int, limit: int) -> tuple[list[int | None], list[int]]:
    """Subset-sum DP over {2, ..., n} for the sums s = 0..limit.

    ``best[s]`` is the minimal product of a subset of {2, ..., n} summing
    to s (None when no subset does; the empty one gives best[0] = 1).
    Bit s of ``taken[j]`` is set when some optimal subset of {j, ..., n}
    summing to s contains j.  Elements are offered from n down to 2 and
    s runs downward, so best[s - j] still excludes j when it is read.
    Since best[s] reads only best[s - j] below it, a table filled to any
    limit agrees with the full one (limit = n(n+1)/2 - 1) at every
    s <= limit, in ``best`` and in every ``taken`` bit.  The work is at
    most (n - 1)(limit + 1) cells, about limit^2/2 when limit < n.
    The ``<=`` keeps j on ties, so the backtrack in min_product can pick
    the lexicographically smallest witness.  No (j, s) with optimal
    subsets both with and without j was found for n <= 120 (``<`` gives
    the same witnesses there), so the rule is a safeguard that no test
    can tell apart from ``<``.
    """
    total = srec_max(n)
    best: list[int | None] = [None] * (limit + 1)
    best[0] = 1
    taken = [0] * (n + 1)
    for j in range(n, 1, -1):
        # subsets of {j, ..., n} sum to at most total - (j-1)j/2
        top = min(limit, total - srec_max(j - 1))
        mark = bytearray(top + 1)
        for s in range(top, j - 1, -1):
            reach = best[s - j]
            if reach is not None:
                cand = reach * j
                cur = best[s]
                if cur is None or cand <= cur:
                    best[s] = cand
                    mark[s] = 1
        taken[j] = int(mark[::-1].translate(_BITS), 2)
    return best, taken


# n -> (limit, best, taken), least recently used first
_tables: OrderedDict[int, tuple[int, list[int | None], list[int]]] = OrderedDict()


def _table_for(n: int, s: int) -> tuple[list[int | None], list[int]]:
    """The cached DP table of n, filled at least to the sum s.

    One table per n is kept, for the _TABLES_KEPT most recently used n.
    A table filled below s is rebuilt to max(s, twice its limit), capped
    at the full n(n+1)/2 - 1, so a sweep over every k at one n costs a
    few builds rather than one per k.
    """
    entry = _tables.pop(n, None)
    if entry is None or entry[0] < s:
        limit = s if entry is None else min(srec_max(n) - 1, max(s, 2 * entry[0]))
        entry = (limit, *_dp_table(n, limit))
    _tables[n] = entry
    if len(_tables) > _TABLES_KEPT:
        _tables.popitem(last=False)
    return entry[1], entry[2]


def min_product(n: int, k: int) -> ExtremalResult:
    """Exact m(n, k) with a witness, by subset-sum DP over {2, ..., n}.

    The DP is filled only up to the sum k - 1, so k <= n costs about
    k^2/2 products and the full n^3/3 is reached only for k near
    n(n+1)/2.  If several tuples share the minimal product, the
    lexicographically smallest one is returned: the backtrack walks
    elements upward and keeps j whenever some optimal subset contains
    it.  Such ties were not found for n <= 120, so this rule is a
    safeguard rather than a behaviour the tests can observe.

    >>> min_product(6, 12)
    ExtremalResult(n=6, k=12, m=30, witness=(1, 5, 6))
    >>> min_product(10, 7).witness
    (1, 6)
    """
    _check_feasible(n, k)
    s = k - 1
    best, taken = _table_for(n, s)
    m = best[s]
    if m is None:
        raise ValueError(f"k={k} is infeasible for n={n}")  # unreachable after _check_feasible
    witness = [1]
    for j in range(2, n + 1):
        if s == 0:
            break
        if taken[j] >> s & 1:
            witness.append(j)
            s -= j
    return ExtremalResult(n, k, m, tuple(witness))


def _check_i0_domain(n: int, k: int) -> None:
    if n < 4:
        raise ValueError("i0 requires n >= 4")
    if not n + 1 <= k <= srec_max(n):
        raise ValueError(f"i0 requires n+1 <= k <= n(n+1)/2, got n={n}, k={k}")


def i0_greedy(n: int, k: int) -> int:
    """Greatest i with k - 1 >= n + (n-1) + ... + (n-i), by accumulation."""
    _check_i0_domain(n, k)
    total = n
    i = 0
    while i < n - 1 and total + (n - i - 1) <= k - 1:
        i += 1
        total += n - i
    return i


def i0_closed(n: int, k: int) -> int:
    """Closed form floor((2n - 1 - sqrt(4n^2 + 4n - 8k + 9)) / 2).

    Uses the exact integer square root: the radicand is a perfect
    square at both ends of the k range (k = n+1 and k = n(n+1)/2), the
    classic spot where a float floor goes off by one.

    >>> [i0_closed(10, k) for k in (11, 27, 55)]
    [0, 1, 8]
    """
    _check_i0_domain(n, k)
    radicand = 4 * n * n + 4 * n - 8 * k + 9
    if radicand < 0:
        raise ValueError("negative radicand; k out of range")  # impossible within domain
    root = math.isqrt(radicand)
    if root * root == radicand:
        return (2 * n - 1 - root) // 2
    # true sqrt lies in (root, root+1): floor drops by one when parity lands even
    return (2 * n - 2 - root) // 2


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
