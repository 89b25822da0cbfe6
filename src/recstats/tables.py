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

Both read only lower indices of the previous row, so the row iterators
sweep k downward through one list and update it in place: one row is
alive at a time.  ``rec_count`` runs the same sweep over just the band
of k that a single c(n, k) depends on.

Rows are stored densely, indexed by k from 0: a REC row covers k in
[0, n], an SREC row covers k in [0, n(n+1)/2].  Entry 0 is always zero,
and SREC rows keep their zeros, which sit exactly at k = 2 and
k = n(n+1)/2 - 1 once n >= 3.  Counts grow like n!, so everything stays
in Python integers.
"""

from __future__ import annotations

import math
from typing import Iterator

REC = "rec"
SREC = "srec"


def srec_max(n: int) -> int:
    """Largest attainable srec value, n(n+1)/2."""
    return n * (n + 1) // 2


class _Frozen:
    """Base of the package's validated value classes.

    Subclasses list their fields in ``__slots__`` and set them once in
    ``__init__`` through ``object.__setattr__``; after that assigning or
    deleting an attribute raises ``AttributeError``.  Two instances are
    equal when they are of the same class and their fields are equal;
    the hash is that of the tuple of field values, the repr reads
    ``Name(field=value, ...)``, and pickling calls the constructor again
    with the field values.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class CountTable(_Frozen):
    """One dense coefficient row of either statistic.

    ``coeffs`` is a tuple of exact counts indexed by k from 0: length
    n + 1 for REC and n(n+1)/2 + 1 for SREC.  Entry 0 is always 0, and
    the row total is always n!.
    """

    __slots__ = ("n", "kind", "coeffs")

    def __init__(self, n: int, kind: str, coeffs: tuple[int, ...]) -> None:
        if kind not in (REC, SREC):
            raise ValueError(f"kind must be {REC!r} or {SREC!r}")
        top = n if kind == REC else srec_max(n)
        if len(coeffs) != top + 1:
            raise ValueError(f"{kind} row for n={n} needs {top + 1} entries, got {len(coeffs)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coeffs", coeffs)

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

    Every step yields the same list, updated in place to the next row,
    so one row is alive at a time; copy a row to keep it past the next
    ``next()``.
    """
    _check_n(n_max)
    row = [0, 1]
    yield 1, row
    for n in range(2, n_max + 1):
        m = n - 1
        # c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k); a downward sweep over k
        # reads each old entry before it is overwritten
        row.append(row[m])
        for k in range(m, 0, -1):
            row[k] = row[k - 1] + m * row[k]
        yield n, row


def iter_srec_rows(n_max: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (n, dense SREC row indexed 0..n(n+1)/2) for n = 1..n_max.

    Every step yields the same list, updated in place to the next row,
    so one row is alive at a time; copy a row to keep it past the next
    ``next()``.
    """
    _check_n(n_max)
    row = [0, 1]
    yield 1, row
    for n in range(2, n_max + 1):
        m = n - 1
        row.extend([0] * n)
        # C(n, k) = (n-1) C(n-1, k) + C(n-1, k-n), swept downward over k;
        # the second term is zero for k <= n (and row[k - n] would wrap there)
        for k in range(len(row) - 1, n, -1):
            row[k] = m * row[k] + row[k - n]
        for k in range(n, 0, -1):
            row[k] *= m
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


def rec_count(n: int, k: int) -> int:
    """The single count c(n, k), for k in [0, n], without the rest of its row.

    The recurrence of :func:`iter_rec_rows` runs over the band c(n, k)
    depends on: row j keeps k' in [max(1, k - (n - j)), min(j, k)], so
    about k (n - k) products instead of n^2 / 2.

    >>> rec_count(3, 2)
    3
    """
    _check_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    row = [0] * (k + 1)
    if k:
        row[1] = 1
    for j in range(2, n + 1):
        m = j - 1
        for i in range(min(j, k), max(1, k - (n - j)) - 1, -1):
            row[i] = row[i - 1] + m * row[i]
    return row[k]


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


# rows per chunk yielded by table_csv and table_json: few writes, and the
# chunk in flight (about 4.5 times its text while it is joined and encoded)
# stays small next to the row
EXPORT_BLOCK = 256


def _blocks(table: CountTable) -> Iterator[range]:
    """The k of one exported row (k >= 1; entry 0 is not exported), EXPORT_BLOCK at a time."""
    top = len(table.coeffs)
    for start in range(1, top, EXPORT_BLOCK):
        yield range(start, min(start + EXPORT_BLOCK, top))


def table_csv(table: CountTable) -> Iterator[str]:
    """CSV document ``n,k,count``, one row per k >= 1, as text chunks.

    The header comes first, then one chunk per EXPORT_BLOCK rows, so a
    writer never holds more than one block of decimals; join the chunks
    for the whole document.

    >>> "".join(table_csv(rec_table(2)))
    'n,k,count\\n2,1,1\\n2,2,1\\n'
    """
    yield "n,k,count\n"
    n, coeffs = table.n, table.coeffs
    for ks in _blocks(table):
        yield "".join(f"{n},{k},{coeffs[k]}\n" for k in ks)


def table_json(table: CountTable) -> Iterator[str]:
    """JSON document with counts as decimal strings (they exceed 64 bits fast), as text chunks.

    The joined chunks are byte for byte what ``json.dumps`` gives for
    ``{"n": n, "kind": kind, "coeffs": {"1": "...", ...}}`` with its
    default separators; there is no trailing newline.

    >>> "".join(table_json(rec_table(2)))
    '{"n": 2, "kind": "rec", "coeffs": {"1": "1", "2": "1"}}'
    """
    yield f'{{"n": {table.n}, "kind": "{table.kind}", "coeffs": {{'
    coeffs = table.coeffs
    for ks in _blocks(table):
        # every entry but the very first is preceded by ", "
        sep = "" if ks.start == 1 else ", "
        yield sep + ", ".join(f'"{k}": "{coeffs[k]}"' for k in ks)
    yield "}}"
