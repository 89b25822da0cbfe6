"""
Permutations in one-line notation and their record statistics.

A permutation of {1, ..., n} is stored as the tuple of its values
(a_1, ..., a_n).  An entry a_j is a *record* (a left-to-right maximum)
when a_i < a_j for every i < j; the first entry is always a record.
Two statistics are derived from the records: ``rec``, the number of
records, and ``srec``, the sum of the positions of the records.

The inversion code used throughout is the tuple (r_1, ..., r_n) with

    r_i = #{j < i : a_j > a_i},

a Lehmer-style code satisfying 0 <= r_i <= i-1.  The map is a bijection
onto all such tuples, and r_i = 0 exactly at the record positions, so
records of a uniform random permutation occur independently with
probability 1/i at position i.  Decoding independent uniform digits is
therefore also how :func:`sample_uniform` draws uniform permutations.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .tables import _Frozen

# the most codes whose permutations one stream keeps: 7!, 0.73 MB of them
_MEMO_LIMIT = 5040


class Permutation(_Frozen):
    """A permutation of {1, ..., n} in one-line notation.

    Construction validates in O(n) that ``entries`` is a bijection of
    {1, ..., n} with n >= 1.

    >>> Permutation((2, 1, 3))
    Permutation(entries=(2, 1, 3))
    >>> Permutation((1, 1, 3))
    Traceback (most recent call last):
        ...
    ValueError: entries are not a permutation of 1..3
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        n = len(entries)
        if n == 0:
            raise ValueError("a permutation needs at least one entry")
        seen = [False] * (n + 1)
        for a in entries:
            if not isinstance(a, int) or not 1 <= a <= n or seen[a]:
                raise ValueError(f"entries are not a permutation of 1..{n}")
            seen[a] = True
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_string(cls, text: str) -> Permutation:
        """Parse the comma-separated serialization, e.g. ``"4,7,5,1,6,8,2,3"``."""
        try:
            values = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"not a comma-separated list of integers: {text!r}") from None
        return cls(values)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


class RecordProfile(_Frozen):
    """Record positions of one permutation together with rec and srec."""

    __slots__ = ("positions", "rec", "srec")

    def __init__(self, positions: tuple[int, ...]) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "rec", len(positions))
        object.__setattr__(self, "srec", sum(positions))

    def __reduce__(self):
        return type(self), (self.positions,)


def record_positions(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Positions (1-based) of the records of a raw value tuple.

    Running-maximum scan; no validation, callers pass known permutations.
    """
    positions = []
    best = 0
    for i, a in enumerate(entries, start=1):
        if a > best:
            positions.append(i)
            best = a
    return tuple(positions)


def records(p: Permutation) -> RecordProfile:
    """Record profile of ``p``.

    >>> records(Permutation((4, 7, 5, 1, 6, 8, 2, 3)))
    RecordProfile(positions=(1, 2, 6), rec=3, srec=9)
    >>> records(Permutation((3, 2, 1))).positions
    (1,)
    """
    return RecordProfile(record_positions(p.entries))


def lehmer_encode(p: Permutation) -> tuple[int, ...]:
    """Code tuple r with r_i = #{j < i : a_j > a_i}.

    >>> lehmer_encode(Permutation((4, 7, 5, 1, 6, 8, 2, 3)))
    (0, 0, 1, 3, 1, 0, 5, 5)
    """
    entries = p.entries
    return tuple(
        sum(1 for j in range(i) if entries[j] > entries[i]) for i in range(len(entries))
    )


def lehmer_decode(code: tuple[int, ...]) -> Permutation:
    """Inverse of :func:`lehmer_encode`.

    Rejects digits outside 0 <= r_i <= i-1.  Position i receives the
    (r_i+1)-th largest of the values still unused at step i, walking the
    positions from the right.

    >>> lehmer_decode((0, 0, 1, 3, 1, 0, 5, 5))
    Permutation(entries=(4, 7, 5, 1, 6, 8, 2, 3))
    >>> lehmer_decode((0, 0, 0)).entries
    (1, 2, 3)
    """
    for i, r in enumerate(code, start=1):
        if not isinstance(r, int) or not 0 <= r <= i - 1:
            raise ValueError(f"code digit r_{i}={r} outside [0, {i - 1}]")
    return _decode(code, tuple(range(1, len(code) + 1)))


def _decode(code: Sequence[int], values: tuple[int, ...]) -> Permutation:
    # digits in range, values (1, ..., n): the entries are those very int
    # objects, so draws that share one values tuple share their entries' ints
    remaining = list(values)
    out = []
    for i in range(len(code), 0, -1):
        out.append(remaining.pop(i - 1 - code[i - 1]))
    out.reverse()
    return Permutation(tuple(out))


def sample_uniform(n: int, seed: int) -> Permutation:
    """One uniform random permutation of {1, ..., n}, deterministic in (n, seed).

    The generator is Python's Mersenne Twister (``random.Random(seed)``);
    one code digit is drawn per position, i = 1..n in order, as
    ``randrange(i)`` would draw it, and the digits are decoded, so the
    output is reproducible across runs and platforms.
    """
    return next(iter_uniform(n, seed, 1))


def _memo_slots(n: int, count: int) -> int:
    """n! when a stream of ``count`` draws keeps its decoded codes, else 0.

    The draws are kept when n! <= count, so codes must repeat, and
    n! <= _MEMO_LIMIT.  The product stops at the first partial product
    past min(count, _MEMO_LIMIT), so the answer costs at most eight
    multiplications for any n.
    """
    limit = min(count, _MEMO_LIMIT)
    slots = 1
    for i in range(1, n + 1):
        slots *= i
        if slots > limit:
            return 0
    return slots


def iter_uniform(n: int, seed: int, count: int) -> Iterator[Permutation]:
    """``count`` permutations drawn from the single stream seeded once, one at a time.

    :func:`sample_uniform` is the first draw.  Digit r_i is
    ``getrandbits(i.bit_length())`` drawn until it is < i, the loop
    ``randrange(i)`` runs on CPython 3.10 and 3.11, so the stream is the
    one ``randrange`` gives.  All draws decode into the same value
    objects, and the arguments are checked when the first permutation
    is requested.

    When the stream must repeat codes (n! <= count) and n! <= 7!, each
    code is decoded once.  The draw then reads its digits as the
    mixed-radix rank ``rank * i + r_i`` (0 <= rank < n!), the first draw
    of a rank decodes it into a list of n! slots, and each repeat
    yields that same immutable permutation.  The digits drawn are the
    same either way.  The list holds at most 5040 permutations of 7
    entries, 0.73 MB as ``tracemalloc`` counts it, whatever ``count`` is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    getrandbits = random.Random(seed).getrandbits
    values = tuple(range(1, n + 1))
    widths = [(i, i.bit_length()) for i in values]
    slots = _memo_slots(n, count)
    if slots:
        kept: list[Permutation | None] = [None] * slots
        for _ in range(count):
            rank = 0
            for i, width in widths:
                r = getrandbits(width)
                while r >= i:
                    r = getrandbits(width)
                rank = rank * i + r
            p = kept[rank]
            if p is None:
                p = kept[rank] = _decode(_unrank(rank, n), values)
            yield p
        return
    for _ in range(count):
        code = []
        for i, width in widths:
            r = getrandbits(width)
            while r >= i:
                r = getrandbits(width)
            code.append(r)
        yield _decode(code, values)


def _unrank(rank: int, n: int) -> list[int]:
    # the code (r_1, ..., r_n) whose mixed-radix rank is ``rank``
    code = []
    for i in range(n, 0, -1):
        rank, r = divmod(rank, i)
        code.append(r)
    code.reverse()
    return code


def sample_uniform_many(n: int, seed: int, count: int) -> list[Permutation]:
    """``count`` permutations drawn from the single stream seeded once."""
    return list(iter_uniform(n, seed, count))
