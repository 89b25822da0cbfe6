"""
Exact coefficient tables of the two record-statistic distributions.

``c(n, k)`` counts the permutations of {1, ..., n} with exactly k
records; it is the unsigned Stirling number of the first kind, the
coefficient of q^k in q(q+1)(q+2)...(q+n-1).  ``C(n, k)`` counts the
permutations whose record positions sum to k; it is the coefficient of
q^k in q(q^2+1)(q^3+2)...(q^n+n-1).  Both polynomial products turn into
one-row recurrences, so a full row is built with O(n * row length)
exact big-integer operations:

    c(n, k) = c(n-1, k-1) + (n-1) * c(n-1, k)
    C(n, k) = C(n-1, k-n) + (n-1) * C(n-1, k)

Rows are stored densely, indexed by k from 0: a REC row covers k in
[0, n], an SREC row covers k in [0, n(n+1)/2].  Entry 0 is always zero,
and SREC rows keep their zeros, which sit exactly at k = 2 and
k = n(n+1)/2 - 1 once n >= 3.  Counts grow like n!, so everything stays
in Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .perm import record_positions

REC = "rec"
SREC = "srec"

# brute_force_tables enumerates n! permutations
BRUTE_FORCE_LIMIT = 9


def srec_max(n: int) -> int:
    """Largest attainable srec value, n(n+1)/2."""
    return n * (n + 1) // 2


@dataclass(frozen=True)
class CountTable:
    """One dense coefficient row of either statistic.

    ``coeffs`` is a tuple of exact counts indexed by k from 0: length
    n + 1 for REC and n(n+1)/2 + 1 for SREC.  Entry 0 is always 0, and
    the row total is always n!.
    """

    n: int
    kind: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (REC, SREC):
            raise ValueError(f"kind must be {REC!r} or {SREC!r}")
        top = self.n if self.kind == REC else srec_max(self.n)
        if len(self.coeffs) != top + 1:
            raise ValueError(
                f"{self.kind} row for n={self.n} needs {top + 1} entries, got {len(self.coeffs)}"
            )

    def total(self) -> int:
        return sum(self.coeffs)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError(f"k={k} is negative")
        return self.coeffs[k]


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")


def iter_rec_rows(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, dense REC row indexed 0..n) for n = 1..n_max.

    The yielded lists are fresh; callers may keep or mutate them.
    """
    _check_n(n_max)
    row = [0, 1]
    yield 1, row
    for n in range(2, n_max + 1):
        prev = row
        row = [0] * (n + 1)
        for k in range(1, n):
            row[k] = prev[k - 1] + (n - 1) * prev[k]
        row[n] = prev[n - 1]
        yield n, row


def iter_srec_rows(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, dense SREC row indexed 0..n(n+1)/2) for n = 1..n_max."""
    _check_n(n_max)
    row = [0, 1]
    yield 1, row
    for n in range(2, n_max + 1):
        prev = row
        m = n - 1
        # C(n, k) = (n-1) C(n-1, k) + C(n-1, k-n), both zero outside the old row
        row = [m * a + b for a, b in zip(prev + [0] * n, [0] * (n + 1) + prev[1:])]
        yield n, row


def _last(rows: Iterator[tuple[int, list[int]]]) -> list[int]:
    for _, row in rows:
        pass
    return row


def rec_table(n: int) -> CountTable:
    """Exact row of c(n, k) for k in [0, n].

    >>> rec_table(3).coeffs
    (0, 2, 3, 1)
    """
    _check_n(n)
    row = _last(iter_rec_rows(n))
    return CountTable(n, REC, tuple(row))


def srec_table(n: int) -> CountTable:
    """Exact row of C(n, k) for k in [0, n(n+1)/2].

    >>> srec_table(3).coeffs
    (0, 2, 0, 2, 1, 0, 1)
    """
    _check_n(n)
    row = _last(iter_srec_rows(n))
    return CountTable(n, SREC, tuple(row))


def brute_force_tables(n: int) -> tuple[CountTable, CountTable]:
    """Histograms of rec and srec over all n! permutations.

    Independent of the generating-function recurrences: only the record
    scan of :mod:`recstats.perm` is used.  Enumeration is capped at
    n <= 9.
    """
    _check_n(n)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    import itertools

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


def big_ln(value: int) -> float:
    """Natural log of an arbitrary-precision positive integer.

    ``math.log`` reads big integers through their bit length plus
    leading bits, giving relative error at the few-ulp level, far inside
    the 1e-12 budget.

    >>> big_ln(1)
    0.0
    """
    if value < 1:
        raise ValueError("value must be a positive integer")
    return math.log(value)


def table_csv(table: CountTable) -> str:
    """CSV document ``n,k,count``, one row per k >= 1 (entry 0 is not exported)."""
    lines = ["n,k,count"]
    lines.extend(f"{table.n},{k},{table.coeffs[k]}" for k in range(1, len(table.coeffs)))
    return "\n".join(lines) + "\n"


def table_json(table: CountTable) -> str:
    """JSON document with counts as decimal strings (they exceed 64 bits fast)."""
    import json

    return json.dumps(
        {
            "n": table.n,
            "kind": table.kind,
            "coeffs": {str(k): str(table.coeffs[k]) for k in range(1, len(table.coeffs))},
        }
    )
