"""
Exact rational record probabilities and their two-sided bounds.

Records of a uniform random permutation occur independently, with
probability 1/k at position k.  So the probability that prescribed
positions are (Y) or are not (N) records is an exact rational product
of factors 1/j and 1 - 1/j.  Summed over record-position sets
{1 = v_1 < ... < v_k <= n}, the same weights give P(rec = k) = c(n,k)/n!
and, over sets with v_1 + ... + v_r = k, P(srec = k) = C(n,k)/n!; those
sums are the oracles ``rec_prob_sum`` and ``srec_prob_sum`` of
:mod:`recstats.oracles`.

The bound operations return natural logs of the bracket ends because
the lower ends underflow floats long before n gets interesting.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import extremal
from .tables import _Frozen, big_ln

YES = "Y"
NO = "N"


class PatternSpec(_Frozen):
    """Record/non-record marks on positions of an n-permutation.

    ``marks`` maps a position j to ``"Y"`` (j must be a record) or
    ``"N"`` (j must not be one); unmarked positions are unconstrained.
    It holds a dict, so it has no hash.
    """

    __slots__ = ("n", "marks")

    def __init__(self, n: int, marks: dict[int, str]) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        for j, mark in marks.items():
            if not 1 <= j <= n:
                raise ValueError(f"marked position {j} outside 1..{n}")
            if mark not in (YES, NO):
                raise ValueError(f"mark for position {j} must be 'Y' or 'N', got {mark!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "marks", marks)


def pattern_probability(spec: PatternSpec) -> Fraction:
    """Exact probability that a uniform permutation matches the marks.

    Position 1 is always a record: marking it 'Y' contributes factor 1,
    marking it 'N' is rejected.

    >>> pattern_probability(PatternSpec(3, {2: "Y", 3: "N"}))
    Fraction(1, 3)
    """
    if spec.marks.get(1) == NO:
        raise ValueError("position 1 is always a record and cannot be marked 'N'")
    p = Fraction(1)
    for j, mark in spec.marks.items():
        if j == 1:
            continue
        p *= Fraction(1, j) if mark == YES else Fraction(j - 1, j)
    return p


def rec_prob_bounds(n: int, x: float) -> tuple[float, float]:
    """Log-domain bracket of P(rec = k) for k = floor(n*x).

    Returns (log_lower, log_upper) with
    lower = (n - k)! / (n * n!) and upper = 2^n / k!.  The domain test
    and the floor run in integers on x = p/q from ``x.as_integer_ratio()``,
    the exact binary value of ``x``, which pins k inside [1, n].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = x.as_integer_ratio()
    if not (q <= n * p and p <= q):
        raise ValueError(f"x must lie in [1/n, 1], got {x}")
    k = n * p // q
    log_lower = big_ln(math.factorial(n - k)) - math.log(n) - big_ln(math.factorial(n))
    log_upper = n * math.log(2.0) - big_ln(math.factorial(k))
    return log_lower, log_upper


def srec_prob_bounds(n: int, k: int) -> tuple[float, float]:
    """Log-domain bracket of P(srec = k) via the minimum product m(n, k).

    Returns (log_lower, log_upper) with lower = 1/(n * m(n,k)) and
    upper = 2^n / m(n,k).  The two k values with count zero have no
    witness tuple and are rejected.
    """
    log_m = big_ln(extremal.min_product(n, k).m)
    return -math.log(n) - log_m, n * math.log(2.0) - log_m


def format_fraction(value: Fraction) -> str:
    """Serialize as ``p/q`` in lowest terms, denominator always shown."""
    return f"{value.numerator}/{value.denominator}"
