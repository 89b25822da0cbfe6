"""
Workload definitions: the CLI calls each workload makes, and the checks
their outputs must pass.

A workload is a fixed list of ``recstats`` CLI calls.  Problem sizes are
constants; the seed picks only the parameters named in each workload
function, so the cost of a workload does not depend on the seed.

Every check reads the call's output (stdout, or the ``--output`` file)
and raises :class:`CheckFailed` when it is wrong.  The checks are
independent of the library: they recompute row sums, the factorial
columns, the Gamma squeeze and the pattern product formula from the
definitions, with the standard library only.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

# stands in for the output path in argv until a run picks a directory
OUT = "{out}"

# tau(n) must stay within this factor of its maximum over n <= WINDOW_N
TAU_WINDOW = 1.1
WINDOW_N = 50


class CheckFailed(Exception):
    """An output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Call:
    """One CLI call and the check its output must pass.

    ``check(path, context)`` reads the output at ``path``.  ``context``
    is shared by the calls of one pass, in order, so a later check can
    compare against an earlier output.
    """

    argv: tuple[str, ...]
    check: Callable[[Path, dict], None]

    @property
    def key(self) -> str:
        """The argv as one string; it names the call in digests and reports."""
        return " ".join(self.argv)

    @property
    def writes_file(self) -> bool:
        return OUT in self.argv

    def argv_for(self, out_path: Path) -> list[str]:
        return [str(out_path) if a == OUT else a for a in self.argv]


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _csv_row(path: Path, header: str) -> list[str]:
    lines = _lines(path)
    _require(len(lines) == 2 and lines[0] == header, f"expected {header!r} and one row")
    return lines[1].split(",")


def _floats(fields: list[str]) -> list[float]:
    values = [float(f) for f in fields]
    _require(all(math.isfinite(v) for v in values), f"non-finite value in {fields}")
    return values


# ---------------------------------------------------------------- tables


def srec_top(n: int) -> int:
    return n * (n + 1) // 2


def _check_row(n: int, kind: str, counts: list[int]) -> None:
    """Independent checks of one exported row, counts[k - 1] = count(n, k)."""
    top = n if kind == "rec" else srec_top(n)
    _require(len(counts) == top, f"{kind} row of n={n} has {len(counts)} entries, want {top}")
    _require(min(counts) >= 0, "negative count")
    _require(sum(counts) == math.factorial(n), f"{kind} row of n={n} does not sum to n!")
    _require(counts[0] == math.factorial(n - 1), "count(n, 1) != (n-1)!")
    _require(counts[-1] == 1, "last count != 1")
    if kind == "srec" and n >= 3:
        _require(counts[1] == 0 and counts[top - 2] == 0,
                 "C(n, 2) and C(n, n(n+1)/2 - 1) must be 0")


def check_table_csv(n: int, kind: str, path: Path, context: dict) -> None:
    counts = []
    with path.open() as handle:
        _require(handle.readline() == "n,k,count\n", "bad table header")
        for k, line in enumerate(handle, start=1):
            row_n, row_k, count = line.rstrip("\n").split(",")
            _require(row_n == str(n) and row_k == str(k), f"bad index in line {k}")
            counts.append(int(count))
    _check_row(n, kind, counts)


def check_table_json(n: int, kind: str, path: Path, context: dict) -> None:
    with path.open() as handle:
        doc = json.load(handle)
    _require(doc["n"] == n and doc["kind"] == kind, "bad n or kind")
    keys = list(doc["coeffs"])
    _require(keys == [str(k) for k in range(1, len(keys) + 1)], "coefficient keys not 1..K")
    _check_row(n, kind, [int(v) for v in doc["coeffs"].values()])


# --------------------------------------------------------------- scaling


def check_tau(stat: str, n_min: int, n_max: int, path: Path, context: dict) -> None:
    lines = _lines(path)
    _require(lines[0] == "n,sup_dev,tau,argmax_x", "bad tau header")
    rows, taus = {}, {}
    for line in lines[1:]:
        n_text, *values = line.split(",")
        n = int(n_text)
        sup_dev, tau, argmax_x = _floats(values)
        _require(sup_dev >= 0.0 and 0.0 <= argmax_x <= 1.0, f"bad row at n={n}")
        _require(math.isclose(tau, sup_dev * math.log(n), rel_tol=1e-12),
                 f"tau != sup_dev * ln n at n={n}")
        rows[n], taus[n] = line, tau
    _require(list(rows) == list(range(n_min, n_max + 1)), "tau rows do not cover the n range")
    c_emp = max(taus[n] for n in range(n_min, min(n_max, WINDOW_N) + 1))
    _require(all(t <= TAU_WINDOW * c_emp for t in taus.values()), "tau leaves the 1.1x window")
    context[("tau", stat)] = rows


def check_deviation(stat: str, n: int, path: Path, context: dict) -> None:
    fields = _csv_row(path, "n,sup_dev,tau,argmax_x")
    _require(fields[0] == str(n), "deviation row has the wrong n")
    _floats(fields[1:])
    series = context.get(("tau", stat))
    if series is not None and n in series:
        _require(",".join(fields) == series[n], "deviation differs from the tau series row")


def check_curve(stat: str, points: int, path: Path, context: dict) -> None:
    lines = _lines(path)
    _require(lines[0] == "x,psi_n,target" and len(lines) == points + 1, "bad curve shape")
    for i, line in enumerate(lines[1:]):
        x, psi, target = _floats(line.split(","))
        _require(x == i / (points - 1), f"x out of place in sample {i}")
        want = 1.0 - x if stat == "rec" else math.sqrt(1.0 - x)
        _require(target == want and 0.0 <= psi <= 1.0, f"bad sample {i}")
    _require(float(lines[-1].split(",")[1]) == 0.0, "curve does not vanish at x = 1")


# -------------------------------------------------------------- extremal


def _log_gamma_squeeze(n: int, k: int) -> tuple[float, float]:
    """ln of Gamma(n+1)/Gamma(n-i0) and of that times e^n, i0 by accumulation."""
    i0, total = 0, n
    while i0 < n - 1 and total + (n - i0 - 1) <= k - 1:
        i0 += 1
        total += n - i0
    lower = math.lgamma(n + 1.0) - math.lgamma(float(n - i0))
    return lower, lower + n


def check_min_product(n: int, k: int, path: Path, context: dict) -> None:
    row_n, row_k, m_text, witness_text = _csv_row(path, "n,k,m,witness")
    _require((row_n, row_k) == (str(n), str(k)), "min-product row has the wrong (n, k)")
    m = int(m_text)
    witness = [int(v) for v in witness_text.split("+")]
    _require(witness[0] == 1 and witness[-1] <= n, "witness must start at 1 and stay <= n")
    _require(all(a < b for a, b in zip(witness, witness[1:])), "witness not increasing")
    _require(sum(witness) == k and math.prod(witness) == m, "witness does not realize (k, m)")
    if k <= n:
        _require(m == k - 1, "m(n, k) != k - 1 for k <= n")
    else:
        lower, upper = _log_gamma_squeeze(n, k)
        _require(lower - 1e-9 <= math.log(m) <= upper + 1e-9, "ln m outside the Gamma squeeze")


# ---------------------------------------------------- temme, pattern, perm


def check_temme(n: int, m: int, path: Path, context: dict) -> None:
    fields = _csv_row(path, "n,m,u1,t1,B,g,log_estimate,log_exact,rel_error")
    _require(fields[:2] == [str(n), str(m)], "temme row has the wrong (n, m)")
    u1, t1, _, g, log_estimate, log_exact, rel_error = _floats(fields[2:])
    _require(u1 > 0 and g > 0 and t1 == (m - 1) / (n - m), "bad saddle data")
    _require(math.isclose(rel_error, abs(math.exp(log_estimate - log_exact) - 1.0),
                          rel_tol=1e-9), "rel_error inconsistent with the logs")
    _require(rel_error < 1e-3, "saddle-point estimate off by more than 1e-3")


def pattern_probability(marks: dict[int, str]) -> Fraction:
    """Product formula: position j is a record with probability 1/j, independently."""
    p = Fraction(1)
    for j, mark in marks.items():
        p *= Fraction(1, j) if mark == "Y" else Fraction(j - 1, j)
    return p


def check_pattern(marks: dict[int, str], path: Path, context: dict) -> None:
    p = pattern_probability(marks)
    _require(path.read_text() == f"{p.numerator}/{p.denominator}\n", "pattern probability wrong")


def check_sample(n: int, count: int, path: Path, context: dict) -> None:
    lines = _lines(path)
    _require(len(lines) == count, f"expected {count} permutations")
    identity = list(range(1, n + 1))
    _require(all(sorted(map(int, line.split(","))) == identity for line in lines),
             "a sampled line is not a permutation")


def check_verify(path: Path, context: dict) -> None:
    lines = _lines(path)
    _require(any(line.startswith("PASS ") for line in lines), "verify passed nothing")
    _require(all(line.startswith(("PASS ", "SKIP ")) for line in lines), "verify reported FAIL")


def check_records(path: Path, context: dict) -> None:
    _require(path.read_text() == '{"positions": [1, 3], "rec": 2, "srec": 4}\n',
             "wrong record profile of 2,1,3")


# -------------------------------------------------------------- workloads

# the no-work call timed for setup_s: interpreter start, import, argparse
SETUP_CALL = Call(("records", "--perm", "2,1,3"), check_records)


def certify(rng: random.Random) -> list[Call]:
    """Limit-shape certificates: sup scans over whole ranges of rows."""
    n_dev = rng.randint(290, 300)
    return [
        Call(("tau", "--stat", "srec", "--n-min", "2", "--n-max", "300"),
             partial(check_tau, "srec", 2, 300)),
        Call(("tau", "--stat", "rec", "--n-min", "2", "--n-max", "1000"),
             partial(check_tau, "rec", 2, 1000)),
        Call(("deviation", "--stat", "srec", "--n", str(n_dev)),
             partial(check_deviation, "srec", n_dev)),
        Call(("curve", "--stat", "rec", "--n", "1000", "--points", "2001"),
             partial(check_curve, "rec", 2001)),
    ]


def export(rng: random.Random) -> list[Call]:
    """One final row each, serialized to stdout and through the atomic file write."""
    sample_seed = rng.randrange(2**31)
    return [
        Call(("rec-table", "--n", "1500"), partial(check_table_csv, 1500, "rec")),
        Call(("rec-table", "--n", "1500", "--format", "json", "--output", OUT),
             partial(check_table_json, 1500, "rec")),
        Call(("srec-table", "--n", "300"), partial(check_table_csv, 300, "srec")),
        Call(("srec-table", "--n", "250", "--format", "json", "--output", OUT),
             partial(check_table_json, 250, "srec")),
        Call(("sample", "--n", "2000", "--seed", str(sample_seed), "--count", "200"),
             partial(check_sample, 2000, 200)),
    ]


def bounds(rng: random.Random) -> list[Call]:
    """The extremal DP at n = 300 on both sides of k = n, plus the light layers."""
    k_small = rng.randint(3, 300)
    k_large = rng.randint(301, srec_top(300) - 2)
    m = rng.randint(375, 1125)
    positions = sorted(rng.sample(range(2, 1001), 24))
    marks = {j: rng.choice("YN") for j in positions}
    marks_text = ",".join(f"{j}:{mark}" for j, mark in marks.items())
    return [
        Call(("min-product", "--n", "300", "--k", str(k_small)),
             partial(check_min_product, 300, k_small)),
        Call(("min-product", "--n", "300", "--k", str(k_large)),
             partial(check_min_product, 300, k_large)),
        Call(("temme", "--n", "1500", "--m", str(m), "--compare"),
             partial(check_temme, 1500, m)),
        Call(("pattern", "--n", "1000", "--marks", marks_text), partial(check_pattern, marks)),
        Call(("verify", "--suite", "all", "--max-n", "8"), check_verify),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Call]]] = {
    "certify": certify,
    "export": export,
    "bounds": bounds,
}


def build(workload: str, seed: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(seed))
