import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recstats import perm
from recstats.perm import (
    Permutation,
    iter_uniform,
    lehmer_decode,
    lehmer_encode,
    records,
    sample_uniform,
    sample_uniform_many,
)
from recstats.verify import (
    check_lehmer_roundtrip,
    check_record_frequencies,
    check_sampled_rec_distribution,
)


@st.composite
def permutations(draw, max_n: int = 32) -> Permutation:
    n = draw(st.integers(1, max_n))
    return Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


@st.composite
def codes(draw, max_n: int = 32) -> tuple[int, ...]:
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.integers(0, i - 1)) for i in range(1, n + 1))


def randrange_stream(n: int, seed: int, count: int):
    """The sampler's stream written with randrange: digits r_i = randrange(i), decoded."""
    rng = random.Random(seed)
    for _ in range(count):
        yield lehmer_decode(tuple(rng.randrange(i) for i in range(1, n + 1)))


class TestRecords:
    def test_worked_example(self):
        profile = records(Permutation((4, 7, 5, 1, 6, 8, 2, 3)))
        assert profile.positions == (1, 2, 6)
        assert profile.rec == 3
        assert profile.srec == 9

    def test_identity_all_records(self):
        profile = records(Permutation((1, 2, 3)))
        assert profile.positions == (1, 2, 3)
        assert (profile.rec, profile.srec) == (3, 6)

    def test_decreasing_single_record(self):
        profile = records(Permutation((3, 2, 1)))
        assert profile.positions == (1,)
        assert (profile.rec, profile.srec) == (1, 1)

    @given(permutations())
    def test_profile_invariants(self, p):
        profile = records(p)
        n = len(p)
        assert profile.positions[0] == 1
        assert all(a < b for a, b in zip(profile.positions, profile.positions[1:]))
        assert 1 <= profile.rec <= n
        assert 1 <= profile.srec <= n * (n + 1) // 2


class TestLehmer:
    def test_encode_worked_example(self):
        assert lehmer_encode(Permutation((4, 7, 5, 1, 6, 8, 2, 3))) == (0, 0, 1, 3, 1, 0, 5, 5)

    def test_encode_identity_is_zero(self):
        for n in (1, 4, 9):
            assert lehmer_encode(Permutation(tuple(range(1, n + 1)))) == (0,) * n

    def test_encode_decreasing(self):
        assert lehmer_encode(Permutation((3, 2, 1))) == (0, 1, 2)

    def test_decode_worked_example(self):
        assert lehmer_decode((0, 0, 1, 3, 1, 0, 5, 5)).entries == (4, 7, 5, 1, 6, 8, 2, 3)

    def test_decode_zero_code_is_identity(self):
        assert lehmer_decode((0, 0, 0, 0)).entries == (1, 2, 3, 4)

    def test_decode_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            lehmer_decode((0, 2))
        with pytest.raises(ValueError):
            lehmer_decode((1,))

    def test_exhaustive_bijection_small_n(self):
        check_lehmer_roundtrip(range(1, 7))

    @given(permutations())
    def test_roundtrip(self, p):
        assert lehmer_decode(lehmer_encode(p)) == p

    @given(codes())
    def test_roundtrip_from_code(self, code):
        assert lehmer_encode(lehmer_decode(code)) == code

    @given(permutations())
    def test_records_sit_at_code_zeros(self, p):
        code = lehmer_encode(p)
        zeros = tuple(i for i, r in enumerate(code, start=1) if r == 0)
        profile = records(p)
        assert profile.positions == zeros
        assert profile.rec == len(zeros)
        assert profile.srec == sum(zeros)


class TestPermutationType:
    def test_rejects_non_bijections(self):
        for bad in ((), (0, 1), (1, 1), (2, 3), (1, 2, 4)):
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_string_roundtrip(self):
        p = Permutation((4, 7, 5, 1, 6, 8, 2, 3))
        assert str(p) == "4,7,5,1,6,8,2,3"
        assert Permutation.from_string(str(p)) == p

    def test_from_string_rejects_junk(self):
        with pytest.raises(ValueError):
            Permutation.from_string("1,two,3")


class TestSampling:
    def test_n1_is_trivial(self):
        assert sample_uniform(1, 12345).entries == (1,)

    def test_deterministic(self):
        assert sample_uniform(20, 99) == sample_uniform(20, 99)
        assert sample_uniform_many(6, 7, 5) == sample_uniform_many(6, 7, 5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_uniform(0, 1)

    @settings(deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**64 - 1))
    def test_output_is_valid_permutation(self, n, seed):
        p = sample_uniform(n, seed)
        assert sorted(p.entries) == list(range(1, n + 1))

    @pytest.mark.parametrize("n,seed,count", [(1, 0, 3), (6, 7, 5), (40, 99, 20), (300, 2**40, 4)])
    def test_iter_uniform_is_the_list_stream(self, n, seed, count):
        assert list(iter_uniform(n, seed, count)) == sample_uniform_many(n, seed, count)
        assert next(iter_uniform(n, seed, 1)) == sample_uniform(n, seed)

    @pytest.mark.parametrize("n,seed,count", [
        (1, 0, 50), (2, 5, 100), (4, 1, 5000), (10, 7, 2000), (37, 2**40, 200),
        (300, 3, 20), (2000, 9, 3),
        # on both sides of the memo rule n! <= count: n!-1, n! and 3 n!
        *((n, 11, f * c - d) for n, f in ((2, 2), (3, 6), (4, 24), (5, 120))
          for c, d in ((1, 1), (1, 0), (3, 0))),
        (7, 13, 5040),  # at the cap 7!
        (8, 17, 40320),  # n! <= count past the cap: not kept
    ])
    def test_stream_is_the_randrange_stream(self, n, seed, count):
        assert list(iter_uniform(n, seed, count)) == list(randrange_stream(n, seed, count))

    def test_repeated_codes_are_decoded_once(self):
        # n! <= count: one object per distinct code
        draws = list(iter_uniform(4, 3, 1000))
        assert len({id(p) for p in draws}) == len(set(draws)) <= 24
        # n! > count: every draw is a new object
        for n, count in ((4, 23), (8, 20000)):
            draws = list(iter_uniform(n, 3, count))
            assert len({id(p) for p in draws}) == count

    def test_memo_rule_stops_at_the_cap(self):
        # 10**6! is never formed: the product stops once it passes 7!
        start = time.perf_counter()
        assert perm._memo_slots(10**6, 10**30) == 0
        assert time.perf_counter() - start < 1.0
        assert perm._memo_slots(7, 10**30) == 5040
        assert perm._memo_slots(4, 24) == 24
        assert perm._memo_slots(4, 23) == 0
        assert perm._memo_slots(1, 0) == 0

    def test_draws_share_value_objects(self):
        a, b = sample_uniform_many(1000, 3, 2)
        assert all(x is y for x, y in zip(sorted(a.entries), sorted(b.entries)))

    def test_stream_rejects_bad_arguments(self):
        for n, count in ((0, 1), (3, -1)):
            with pytest.raises(ValueError):
                sample_uniform_many(n, 1, count)
            with pytest.raises(ValueError):
                next(iter_uniform(n, 1, count))

    def test_rec_distribution_matches_exact_row(self):
        # the row the check expects, c(4, k) = 6, 11, 6, 1, from brute force
        from recstats.oracles import brute_force_tables

        assert brute_force_tables(4)[0].coeffs == (0, 6, 11, 6, 1)
        check_sampled_rec_distribution(2024)

    def test_position_frequencies_near_one_over_k(self):
        check_record_frequencies(10, 5150)
