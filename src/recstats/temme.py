"""
Saddle-point estimation of the Stirling numbers c(n, m), Temme style.

c(n, m) is the coefficient of u^(m-1) in (u+1)(u+2)...(u+n-1).  Writing
N = n - 1 and M = m - 1, the coefficient extraction has exponent

    phi(u) = ln((u+1)(u+2)...(u+N)) - M ln u
           = lnGamma(u+N+1) - lnGamma(u+1) - M ln u,

whose derivative phi'(u) = psi(u+N+1) - psi(u+1) - M/u has a unique
positive root u_1.  With t_1 = M/(N-M),
B = phi(u_1) - N ln(1+t_1) + M ln t_1 and
g = (1/u_1) sqrt(M(N-M) / (N phi''(u_1))), the estimate is

    c(n, m) ~ e^B g binom(N, M),

valid for 2 <= m <= n-1 (m = 1 and m = n are the degenerate columns
with exact values (n-1)! and 1).  All arithmetic stays in the log
domain; e^B alone overflows doubles early.

:func:`phi_prime`, :func:`phi_second` and :func:`solve_u1` take the
(n, m) of their own exponent, i.e. phi built from (u+1)...(u+n) and
m ln u; :func:`temme_estimate` feeds them (n-1, m-1).

The module also houses the shared special functions.  lnGamma, psi and
psi' are evaluated by the classic scheme: recurrence shifts push the
argument above 10, then a Bernoulli-number asymptotic series whose
truncation error at the shift threshold is below 1e-12.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple, Sequence

_SHIFT = 10.0
_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_{2j}/((2j)(2j-1)) for lnGamma, B_{2j}/(2j) for psi, B_{2j} for psi'
_LGAMMA_SERIES = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
)
_DIGAMMA_SERIES = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
)
_TRIGAMMA_SERIES = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
)


def _check_positive(x: float, name: str = "x") -> None:
    if not x > 0.0:
        raise ValueError(f"{name} must be > 0, got {x}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    >>> abs(log_gamma(1.0)) < 1e-12
    True
    >>> abs(log_gamma(11.0) - math.log(3628800)) < 1e-12
    True
    """
    _check_positive(x)
    acc = 0.0
    while x < _SHIFT:
        acc -= math.log(x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    term = 1.0 / x
    for c in _LGAMMA_SERIES:
        series += c * term
        term *= inv2
    return acc + (x - 0.5) * math.log(x) - x + _HALF_LN_TWO_PI + series


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    _check_positive(x)
    acc = 0.0
    while x < _SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    term = inv2
    for c in _DIGAMMA_SERIES:
        series += c * term
        term *= inv2
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x: float) -> float:
    """psi'(x) for x > 0."""
    _check_positive(x)
    acc = 0.0
    while x < _SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    term = inv * inv2
    for c in _TRIGAMMA_SERIES:
        series += c * term
        term *= inv2
    return acc + inv + 0.5 * inv2 + series


def digamma_diff(a: float, b: float) -> float:
    """psi(b) - psi(a) for 0 < a <= b, evaluated without cancellation.

    Subtracting two digamma values loses absolute accuracy at the ulp of
    psi itself, which is fatal when the difference is small (the solver
    tolerance shrinks like m/u).  Here the leading terms are combined
    into log1p and the series is differenced termwise, so the error
    scales with the difference.
    """
    _check_positive(a, "a")
    if b < a:
        raise ValueError("need a <= b")
    acc = 0.0
    while a < _SHIFT:
        acc += 1.0 / a
        a += 1.0
    while b < _SHIFT:
        acc -= 1.0 / b
        b += 1.0
    lead = math.log1p((b - a) / a) + 0.5 * (1.0 / a - 1.0 / b)
    inv_a2, inv_b2 = 1.0 / (a * a), 1.0 / (b * b)
    term_a, term_b = inv_a2, inv_b2
    series = 0.0
    for c in _DIGAMMA_SERIES:
        series += c * (term_a - term_b)
        term_a *= inv_a2
        term_b *= inv_b2
    return acc + lead + series


def _check_nm(n: int, m: int) -> None:
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got n={n}, m={m}")


def phi(u: float, n: int, m: int) -> float:
    """phi(u) = lnGamma(u+n+1) - lnGamma(u+1) - m ln u."""
    _check_positive(u, "u")
    return log_gamma(u + n + 1.0) - log_gamma(u + 1.0) - m * math.log(u)


def phi_prime(u: float, n: int, m: int) -> float:
    """phi'(u) = psi(u+n+1) - psi(u+1) - m/u.

    The psi difference telescopes the harmonic sum
    1/(u+1) + ... + 1/(u+n), giving O(1) evaluation;
    ``recstats.oracles.phi_prime_direct`` keeps the O(n) sum as a cross-check.
    """
    _check_positive(u, "u")
    _check_nm(n, m)
    return digamma_diff(u + 1.0, u + n + 1.0) - m / u


def phi_second(u: float, n: int, m: int) -> float:
    """phi''(u) = psi'(u+n+1) - psi'(u+1) + m/u^2."""
    _check_positive(u, "u")
    return trigamma(u + n + 1.0) - trigamma(u + 1.0) + m / (u * u)


def _bracket(n: int, m: int) -> tuple[float, float]:
    # initial guess per the u1/n enclosure x^2/(6(4/3-x)) <= u1/n <= x/(1-x)+1/n,
    # which is only guaranteed for large n; widen until the signs straddle
    x = m / n
    lo = max(1e-12, n * x * x / (6.0 * (4.0 / 3.0 - x)))
    hi = n * x / (1.0 - x) + 1.0
    for _ in range(1100):
        if phi_prime(lo, n, m) < 0.0:
            break
        lo *= 0.5
    else:
        raise ArithmeticError(f"no sign change below, n={n} m={m}")
    for _ in range(1100):
        if phi_prime(hi, n, m) > 0.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError(f"no sign change above, n={n} m={m}")
    return lo, hi


def solve_u1(n: int, m: int) -> float:
    """Unique positive root of phi'(u) = 0, for 1 <= m <= n-1.

    Bracketed bisection first (u * phi'(u) + m is increasing, so the
    root is unique and the sign pattern is - then +), then a short
    Newton polish keeping the iterate with the smallest residual.

    >>> abs(solve_u1(2, 1) - math.sqrt(2)) < 1e-9
    True
    """
    _check_nm(n, m)
    lo, hi = _bracket(n, m)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_prime(mid, n, m) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * lo:
            break
    u = 0.5 * (lo + hi)
    best_u, best_r = u, abs(phi_prime(u, n, m))
    for _ in range(12):
        f = phi_prime(u, n, m)
        fpp = phi_second(u, n, m)
        if fpp <= 0.0:
            break
        nxt = u - f / fpp
        if nxt <= 0.0 or nxt == u:
            break
        u = nxt
        r = abs(phi_prime(u, n, m))
        if r < best_r:
            best_u, best_r = u, r
        if r == 0.0:
            break
    return best_u


class TemmeEstimate(NamedTuple):
    """Saddle data and log estimate of c(n, m).

    ``u1``, ``t1``, ``B`` and ``g`` belong to the exponent of the
    coefficient extraction for c(n, m), i.e. they are evaluated at
    (N, M) = (n-1, m-1); ``log_estimate`` approximates ln c(n, m).

    A NamedTuple: it equals the plain tuple of its fields; copy it with ``_replace``.
    """

    n: int
    m: int
    u1: float
    t1: float
    B: float
    g: float
    log_estimate: float


def temme_estimate(n: int, m: int) -> TemmeEstimate:
    """Uniform asymptotic estimate of c(n, m) for 2 <= m <= n-1.

    m = 1 and m = n are rejected: there t_1 degenerates to 0 or the
    saddle escapes to 0/infinity, and the columns are exactly (n-1)!
    and 1 anyway.
    """
    if m == 1 or m == n:
        exact = "(n-1)!" if m == 1 else "1"
        raise ValueError(f"m={m} is a degenerate column, exactly {exact}; need 2 <= m <= n-1")
    if not 2 <= m <= n - 1:
        raise ValueError(f"need 2 <= m <= n-1, got n={n}, m={m}")
    big_n, big_m = n - 1, m - 1
    u1 = solve_u1(big_n, big_m)
    t1 = big_m / (big_n - big_m)
    b = phi(u1, big_n, big_m) - big_n * math.log1p(t1) + big_m * math.log(t1)
    g = (1.0 / u1) * math.sqrt(
        big_m * (big_n - big_m) / (big_n * phi_second(u1, big_n, big_m))
    )
    log_binom = (
        log_gamma(big_n + 1.0) - log_gamma(big_m + 1.0) - log_gamma(big_n - big_m + 1.0)
    )
    return TemmeEstimate(n, m, u1, t1, b, g, b + math.log(g) + log_binom)


def scaled_limit_table(x: float, n_list: Iterable[int]) -> list[tuple[int, float]]:
    """(n, log_estimate / (n ln n)) for m = floor(n*x); the limit is 1 - x.

    Values of n for which floor(n*x) falls on a degenerate column are
    skipped with a warning.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    out = []
    for n in n_list:
        m = math.floor(n * x)
        if n < 3 or not 2 <= m <= n - 1:
            warnings.warn(f"skipping n={n}: m={m} outside the estimator range")
            continue
        est = temme_estimate(n, m)
        out.append((n, est.log_estimate / (n * math.log(n))))
    return out


def estimate_csv(rows: Sequence[tuple[TemmeEstimate, float | None]]) -> str:
    """CSV for estimates, optionally with exact log counts.

    Columns: n,m,u1,t1,B,g,log_estimate,log_exact,rel_error.  The last
    two stay empty when no exact value is supplied; rel_error is
    |exp(log_estimate - log_exact) - 1|.
    """
    lines = ["n,m,u1,t1,B,g,log_estimate,log_exact,rel_error"]
    for est, log_exact in rows:
        base = (
            f"{est.n},{est.m},{est.u1!r},{est.t1!r},{est.B!r},{est.g!r},{est.log_estimate!r}"
        )
        if log_exact is None:
            lines.append(base + ",,")
        else:
            rel = abs(math.exp(est.log_estimate - log_exact) - 1.0)
            lines.append(base + f",{log_exact!r},{rel!r}")
    return "\n".join(lines) + "\n"
