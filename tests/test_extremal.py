import hashlib
import itertools
import math
import tracemalloc

import pytest

from recstats.extremal import (
    format_witness,
    gamma_bounds,
    i0_closed,
    min_product,
    srec_count_bounds,
)
from recstats.oracles import i0_greedy
from recstats.tables import SREC, big_ln, srec_max, srec_table
from recstats.temme import log_gamma
from recstats.verify import (
    _feasible_ks,
    _sweep,
    check_gamma_squeeze,
    check_i0_forms_agree,
    check_i0_sqrt_distance,
    check_min_product_vs_bruteforce,
    check_small_k_structure,
    check_srec_count_bounds,
)


def full_table_rows(n: int) -> list[list[int | None]]:
    """rows[j][s]: minimal product of a subset of {j, ..., n} summing to s.

    All n + 2 rows (rows[n + 1] holds only the empty subset) cover every
    s = 0..n(n+1)/2 - 1.
    """
    total = srec_max(n)
    base: list[int | None] = [None] * total
    base[0] = 1
    rows = [base] * (n + 2)
    for j in range(n, 1, -1):
        prev = rows[j + 1]
        cur = prev[:]
        for s in range(j, total):
            reach = prev[s - j]
            if reach is not None:
                cand = reach * j
                if cur[s] is None or cand < cur[s]:
                    cur[s] = cand
        rows[j] = cur
    return rows


def j_reaches_minimum(rows: list[list[int | None]], j: int, s: int) -> bool:
    """Whether some optimal subset of {j, ..., n} summing to s contains j."""
    rest = rows[j + 1][s - j] if s >= j else None
    return rest is not None and rest * j == rows[j][s]


def full_table_minimum(n: int) -> dict[int, tuple[int, tuple[int, ...]]]:
    """(m, witness) for every feasible k from the full-table DP.

    The backtrack keeps j whenever rows[j + 1][s - j] * j reaches
    rows[j][s].
    """
    rows = full_table_rows(n)
    results = {}
    for k in _feasible_ks(n):
        s = k - 1
        witness = [1]
        for j in range(2, n + 1):
            if j_reaches_minimum(rows, j, s):
                witness.append(j)
                s -= j
        results[k] = (rows[2][k - 1], tuple(witness))
    return results


def normal_form(chosen: tuple[int, ...], n: int) -> tuple[int, tuple[int, ...], int]:
    """(p, middle, q) with chosen = [2..p] + middle + [q..n], for a sorted subset of {2, ..., n}.

    [q..n] is the longest run of chosen that ends at n, and [2..p] the
    longest run below q that starts at 2.
    """
    high = len(chosen)
    while high > 0 and chosen[high - 1] == n - (len(chosen) - high):
        high -= 1
    low = 0
    while low < high and chosen[low] == low + 2:
        low += 1
    return low + 1, chosen[low:high], n + 1 - (len(chosen) - high)


def has_the_shape(chosen: tuple[int, ...], n: int) -> bool:
    """Whether a sorted subset of {2, ..., n} is [2..p] + {x} + [q..n]."""
    return len(normal_form(chosen, n)[1]) <= 1


class TestMinProduct:
    def test_small_k_is_k_minus_one(self):
        result = min_product(10, 7)
        assert result.m == 6 and result.witness == (1, 6)

    def test_full_tuple_forced(self):
        for n in (2, 5, 9):
            result = min_product(n, srec_max(n))
            assert result.m == math.factorial(n)
            assert result.witness == tuple(range(1, n + 1))

    def test_competition_n6_k12(self):
        result = min_product(6, 12)
        assert (result.m, result.witness) == (30, (1, 5, 6))

    def test_k1_trivial(self):
        assert min_product(7, 1).witness == (1,)
        assert min_product(7, 1).m == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_brute_force(self, n):
        check_min_product_vs_bruteforce([n])
        for k in _feasible_ks(n):
            got = min_product(n, k)
            assert math.prod(got.witness) == got.m and sum(got.witness) == k

    def test_matches_full_table_oracle(self):
        # brute force stops at n = 15; past it the full-table DP is the reference
        for n in [*range(16, 61), 100, 120]:
            for k, expected in full_table_minimum(n).items():
                got = min_product(n, k)
                assert (got.m, got.witness) == expected, f"n={n}, k={k}"

    def test_cold_calls_match_full_table_oracle(self):
        # the same answers with k descending: no call leans on an earlier one
        for n in range(40, 15, -1):
            for k, expected in reversed(full_table_minimum(n).items()):
                got = min_product(n, k)
                assert (got.m, got.witness) == expected, f"n={n}, k={k}"

    @pytest.mark.parametrize("n", range(1, 13))
    def test_optimal_sets_have_the_shape(self, n):
        # every subset of {2, ..., n} with the least product for its sum, not
        # only the witness, is [2..p] + {x} + [q..n] with p <= 3 and
        # q0 <= q <= q0 + 2: the lemma the nine candidates rest on
        by_sum: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for size in range(n):
            for chosen in itertools.combinations(range(2, n + 1), size):
                by_sum.setdefault(sum(chosen), []).append((math.prod(chosen), chosen))
        for s, subsets in by_sum.items():
            q0 = min(q for q in range(2, n + 2) if sum(range(q, n + 1)) <= s)
            least = min(m for m, _ in subsets)
            for m, chosen in subsets:
                if m == least:
                    p, middle, q = normal_form(chosen, n)
                    assert len(middle) <= 1, f"n={n}, sum={s}: {chosen}"
                    assert p <= 3 and q0 <= q <= q0 + 2, f"n={n}, sum={s}: {chosen}"

    def test_shape_predicate(self):
        assert has_the_shape((), 6) and has_the_shape((2, 3, 5, 9, 10), 10)
        assert not has_the_shape((3, 5), 10) and not has_the_shape((2, 4, 5, 6), 7)

    @pytest.mark.parametrize("k,digest", [
        (100, "fa61f539f739a1e7126cfd2439e13bee2e13e9963cd5f2727fa5717ecadba5a7"),
        (31000, "c277677eee85939c893e3fc7f7278cbea6ba1a332344c3e4bd9c6c039a429fdd"),
        (62811, "f89b53fc05e1a6f8ebbc47854433ee0ddd4c506cb105ba8efa4a3ed0866ac0d4"),
        (125250, "dcec42dde850207e5dda55fad6d0a5d28563bbb593b776cfdeb3307349e7e184"),
    ])
    def test_pinned_at_the_cap(self, k, digest):
        # sha256 of "m,witness", recorded from the subset-sum DP the search replaced
        r = min_product(500, k)
        assert hashlib.sha256(f"{r.m},{format_witness(r.witness)}".encode()).hexdigest() == digest

    def test_dp_memory_stays_quadratic(self):
        # The full-table DP peaked at 11.9 MB under tracemalloc (CPython 3.11.7);
        # the search holds at most nine candidate products of at most
        # log2 n! bits and their witnesses.  The bound is 1/8 of the former.
        tracemalloc.start()
        try:
            min_product(100, srec_max(100) // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"min_product(100, k) peaked at {peak / 1e6:.2f} MB"

    def test_structure_small_k(self):
        check_small_k_structure(range(3, 31))

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            min_product(6, 2)
        with pytest.raises(ValueError):
            min_product(6, srec_max(6) - 1)
        with pytest.raises(ValueError):
            min_product(6, 0)
        with pytest.raises(ValueError):
            min_product(6, srec_max(6) + 1)


class TestThresholdIndex:
    def test_examples_n10(self):
        assert i0_greedy(10, 11) == 0
        assert i0_greedy(10, 27) == 1
        assert i0_greedy(10, 55) == 8

    def test_closed_examples_n10(self):
        assert i0_closed(10, 11) == 0
        assert i0_closed(10, 27) == 1
        assert i0_closed(10, 55) == 8

    def test_perfect_square_ends(self):
        # radicand is (2n-1)^2 at k = n+1 and 9 at k = n(n+1)/2
        for n in (4, 13, 50):
            assert i0_closed(n, n + 1) == 0
            assert i0_closed(n, srec_max(n)) == n - 2

    def test_greedy_matches_accumulation(self):
        for n in range(4, 61):
            total, i = n, 0
            for k in range(n + 1, srec_max(n) + 1):
                while total + (n - i - 1) <= k - 1:
                    i += 1
                    total += n - i
                assert i0_greedy(n, k) == i, f"n={n}, k={k}"

    def test_forms_agree_exhaustively(self):
        check_i0_forms_agree(range(4, 61))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            i0_greedy(3, 5)
        with pytest.raises(ValueError):
            i0_closed(10, 10)
        with pytest.raises(ValueError):
            i0_closed(10, srec_max(10) + 1)


class TestGammaSqueeze:
    def test_tight_at_full_tuple(self):
        bounds = gamma_bounds(10, 55)
        assert bounds.i0 == 8
        assert bounds.log_lower == pytest.approx(math.log(3628800), abs=1e-9)
        assert bounds.log_upper - bounds.log_lower == 10
        assert bounds.log_lower - 1e-9 <= big_ln(min_product(10, 55).m)

    @pytest.mark.parametrize("n,k", [(10, 27), (20, 150)])
    def test_brackets_dp_value(self, n, k):
        bounds = gamma_bounds(n, k)
        log_m = big_ln(min_product(n, k).m)
        assert bounds.log_lower - 1e-9 <= log_m <= bounds.log_upper + 1e-9

    def test_brackets_everywhere_small(self):
        check_gamma_squeeze(range(4, 26), 1e-9)

    def test_squeeze_of_width_ln_n(self):
        """L <= m(n, k) < n L for k > n, with L = n!/(q0 - 1)! and q0 = n - i0.

        The lower end is the Gamma squeeze's.  For the upper end take
        q = q0 and r = k - 1 - sum[q0..n], so 0 <= r < q0 - 1 by the
        definition of i0.  If r >= 2, the set {r} + [q0..n] is admissible,
        so m <= rL < nL.  If r = 0, the set [q0..n] gives m = L.  If r = 1,
        then q0 >= 3, and q0 = 3 would make k - 1 = sum[2..n] - 1, the
        infeasible k; so q0 >= 4 and [q0+1..n] + {2, q0 - 1} gives
        m <= 2L(q0 - 1)/q0 < 2L <= nL.  So ln m - ln L < ln n, where the
        paper's squeeze leaves a gap of n.  At k = 2n - 1, where i0 = 0,
        L = n and m = n(n - 2), the gap is ln(n - 2).
        """
        for n in range(4, 121):
            top = srec_max(n)
            for k in range(n + 1, top + 1):
                if k == top - 1:
                    continue
                low = math.perm(n, i0_greedy(n, k) + 1)
                assert low <= min_product(n, k).m < n * low, f"n={n}, k={k}"
            assert min_product(n, 2 * n - 1).m == n * (n - 2)

    def test_sqrt_distance_bound(self):
        check_i0_sqrt_distance(range(4, 61))


class TestCountBounds:
    def test_small_k_branch(self):
        lo, hi = srec_count_bounds(10, 7)
        actual = big_ln(srec_table(10).coeffs[7])
        assert lo == pytest.approx(log_gamma(11.0) - math.log(6) - math.log(10), abs=1e-9)
        assert lo <= actual <= hi

    def test_threshold_branch(self):
        lo, hi = srec_count_bounds(12, 40)
        actual = big_ln(srec_table(12).coeffs[40])
        assert lo - 1e-9 <= actual <= hi + 1e-9

    def test_top_value(self):
        # count is exactly 1 at k = n(n+1)/2, so the log bracket straddles 0
        lo, hi = srec_count_bounds(12, srec_max(12))
        assert lo <= 0.0 <= hi

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            srec_count_bounds(12, 2)
        with pytest.raises(ValueError):
            srec_count_bounds(12, srec_max(12) - 1)

    def test_brackets_everywhere_small(self):
        check_srec_count_bounds(_sweep(SREC, 4, 30), 1e-9)


def test_witness_serialization():
    assert format_witness((1, 5, 6)) == "1+5+6"
