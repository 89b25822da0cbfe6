import json
import math
import sys
import tracemalloc

import pytest

from recstats import tables
from recstats.oracles import brute_force_tables
from recstats.tables import (
    REC,
    SREC,
    CountTable,
    big_ln,
    iter_rec_rows,
    iter_srec_rows,
    rec_count,
    rec_table,
    srec_max,
    srec_table,
    table_csv,
    table_json,
)
from recstats.verify import (
    check_rec_row_vs_polynomial,
    check_srec_extremes,
)


class TestCountTable:
    def test_rows_are_tuples_from_k0(self):
        for table in (rec_table(4), srec_table(4), *brute_force_tables(4)):
            assert isinstance(table.coeffs, tuple)
            assert table.coeffs[0] == 0
            assert table.total() == math.factorial(4)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CountTable(3, REC, (2, 3, 1))
        with pytest.raises(ValueError):
            CountTable(3, SREC, (0, 2, 3, 1))

    def test_index_outside_row_raises(self):
        for table in (rec_table(5), srec_table(5)):
            top = len(table.coeffs) - 1
            assert table[top] == 1
            for k in (-1, -2, -top - 1, top + 1):
                with pytest.raises(IndexError):
                    table[k]


class TestRecTable:
    def test_n1(self):
        assert rec_table(1).coeffs == (0, 1)

    def test_n3_by_hand(self):
        # q(q+1)(q+2) = q^3 + 3q^2 + 2q
        assert rec_table(3).coeffs == (0, 2, 3, 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
    def test_first_and_last_coefficients(self, n):
        table = rec_table(n)
        assert table.coeffs[1] == math.factorial(n - 1)
        assert table.coeffs[n] == 1
        assert table.coeffs[0] == 0

    def test_matches_polynomial_product(self):
        check_rec_row_vs_polynomial(range(1, 51))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rec_table(0)


class TestSrecTable:
    def test_n3_by_hand(self):
        # q(q^2+1)(q^3+2) = q^6 + q^4 + 2q^3 + 2q
        assert srec_table(3).coeffs == (0, 2, 0, 2, 1, 0, 1)

    @pytest.mark.parametrize("n", [3, 4, 9, 30])
    def test_zero_positions(self, n):
        check_srec_extremes([(n, srec_table(n).coeffs)])

    def test_matches_polynomial_product(self):
        # generic convolution against q * prod (q^j + j - 1), a separate
        # code path from the row recurrence
        def polymul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            return out

        for n in range(1, 31):
            poly = [0, 1]
            for j in range(2, n + 1):
                factor = [j - 1] + [0] * (j - 1) + [1]
                poly = polymul(poly, factor)
            table = srec_table(n)
            assert poly == list(table.coeffs)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            srec_table(0)


class TestRowIterators:
    @pytest.mark.parametrize("rows,pick", [(iter_rec_rows, 0), (iter_srec_rows, 1)])
    def test_one_list_updated_in_place(self, rows, pick):
        generator = rows(40)
        _, first = next(generator)
        for n, row in generator:
            assert row is first
            if n <= 8:
                assert tuple(row) == brute_force_tables(n)[pick].coeffs
            assert sum(row) == math.factorial(n)

    @pytest.mark.parametrize("build,n", [(srec_table, 120), (rec_table, 600)])
    def test_peak_memory_is_about_one_row(self, build, n):
        # building the next row beside the previous one peaked at about
        # two rows (2.24x for srec n = 120, 2.02x for rec n = 600)
        tracemalloc.start()
        try:
            table = build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = sys.getsizeof(table.coeffs) + sum(map(sys.getsizeof, table.coeffs))
        assert peak <= 1.5 * row_bytes, f"peak {peak / row_bytes:.2f} rows"


class TestRecCount:
    def test_every_k_small_n(self):
        for n in range(1, 61):
            coeffs = rec_table(n).coeffs
            assert [rec_count(n, k) for k in range(n + 1)] == list(coeffs)

    def test_every_k_n300(self, rec_rows_300):
        assert [rec_count(300, k) for k in range(301)] == rec_rows_300[300]

    @pytest.mark.parametrize("n", [1, 2, 97, 800])
    def test_edges(self, n):
        assert rec_count(n, 0) == 0
        assert rec_count(n, 1) == math.factorial(n - 1)
        assert rec_count(n, n) == 1

    def test_rejects_k_outside_row(self):
        for n, k in ((0, 0), (5, -1), (5, 6)):
            with pytest.raises(ValueError):
                rec_count(n, k)


class TestBruteForce:
    def test_n1(self):
        rec_bf, srec_bf = brute_force_tables(1)
        assert rec_bf.coeffs[1] == 1 and srec_bf.coeffs[1] == 1

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_tables(10)


class TestBigLn:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            big_ln(0)


class TestExports:
    def test_rec_csv_n1_single_row(self):
        assert "".join(table_csv(rec_table(1))) == "n,k,count\n1,1,1\n"

    def test_srec_csv_keeps_zeros(self):
        lines = "".join(table_csv(srec_table(3))).splitlines()
        assert lines[0] == "n,k,count"
        assert lines[1:] == ["3,1,2", "3,2,0", "3,3,2", "3,4,1", "3,5,0", "3,6,1"]

    def test_json_uses_decimal_strings(self):
        doc = json.loads("".join(table_json(srec_table(50))))
        assert doc["n"] == 50 and doc["kind"] == SREC
        assert doc["coeffs"]["1"] == str(math.factorial(49))
        assert all(isinstance(v, str) for v in doc["coeffs"].values())

    def test_rec_json_content(self):
        doc = json.loads("".join(table_json(rec_table(3))))
        assert doc == {"n": 3, "kind": REC, "coeffs": {"1": "2", "2": "3", "3": "1"}}


def dumps_reference(table: CountTable) -> str:
    """The JSON export as json.dumps writes it, from a test-side dict."""
    coeffs = {str(k): str(table.coeffs[k]) for k in range(1, len(table.coeffs))}
    return json.dumps({"n": table.n, "kind": table.kind, "coeffs": coeffs})


def csv_reference(table: CountTable) -> str:
    lines = ["n,k,count"] + [f"{table.n},{k},{table.coeffs[k]}"
                             for k in range(1, len(table.coeffs))]
    return "\n".join(lines) + "\n"


SMALL_ROWS = [(kind, n) for kind in (REC, SREC) for n in range(1, 13)]


class TestStreamedExports:
    # the chunks joined are the whole document, byte for byte

    @pytest.mark.parametrize("kind,n", SMALL_ROWS + [(REC, 150), (SREC, 40), (SREC, 50)])
    def test_json_matches_json_dumps(self, kind, n):
        table = rec_table(n) if kind == REC else srec_table(n)
        assert "".join(table_json(table)) == dumps_reference(table)

    @pytest.mark.parametrize("kind,n", SMALL_ROWS + [(SREC, 50)])
    def test_csv_matches_joined_lines(self, kind, n):
        table = rec_table(n) if kind == REC else srec_table(n)
        assert "".join(table_csv(table)) == csv_reference(table)

    @pytest.mark.parametrize("block", [1, 2, 5, 7])
    def test_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(tables, "EXPORT_BLOCK", block)
        for table in (rec_table(7), srec_table(5)):
            assert "".join(table_json(table)) == dumps_reference(table)
            assert "".join(table_csv(table)) == csv_reference(table)

    def test_one_chunk_per_block(self):
        table = srec_table(50)  # 1275 exported rows
        blocks = -(-srec_max(50) // tables.EXPORT_BLOCK)
        assert len(list(table_csv(table))) == 1 + blocks
        assert len(list(table_json(table))) == 2 + blocks
