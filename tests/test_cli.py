import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recstats import perm, tables
from recstats.cli import _positive_int, build_parser, main
from recstats.extremal import EXTREMAL_LIMIT, _check_feasible, gamma_bounds
from recstats.tables import big_ln, srec_max


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit() -> int | None:
    """CPython's int<->str digit limit, or None where the interpreter has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def unlimited_digits():
    limit = digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


class TestSubcommands:
    def test_records_worked_example(self, capsys):
        code, out, _ = run(capsys, "records", "--perm", "4,7,5,1,6,8,2,3")
        assert code == 0
        assert json.loads(out) == {"positions": [1, 2, 6], "rec": 3, "srec": 9}

    def test_rec_table_n1_csv(self, capsys):
        code, out, _ = run(capsys, "rec-table", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "n,k,count\n1,1,1\n"

    def test_srec_table_json_big_integers_quoted(self, capsys):
        code, out, _ = run(capsys, "srec-table", "--n", "50", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"]["1"] == str(math.factorial(49))

    def test_sample_deterministic(self, capsys):
        code, first, _ = run(capsys, "sample", "--n", "6", "--seed", "11", "--count", "4")
        assert code == 0
        assert len(first.splitlines()) == 4
        _, second, _ = run(capsys, "sample", "--n", "6", "--seed", "11", "--count", "4")
        assert first == second

    def test_pattern(self, capsys):
        code, out, _ = run(capsys, "pattern", "--n", "3", "--marks", "2:Y,3:N")
        assert code == 0
        assert out.strip() == "1/3"

    def test_min_product_row(self, capsys):
        code, out, _ = run(capsys, "min-product", "--n", "6", "--k", "12")
        assert code == 0
        assert out.splitlines() == ["n,k,m,witness", "6,12,30,1+5+6"]

    def test_curve_rows(self, capsys):
        code, out, _ = run(capsys, "curve", "--stat", "srec", "--n", "12", "--points", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,psi_n,target"
        assert len(lines) == 6

    def test_tau_row_count(self, capsys):
        code, out, _ = run(capsys, "tau", "--stat", "srec", "--n-min", "2", "--n-max", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,sup_dev,tau,argmax_x"
        assert len(lines) == 50  # header plus 49 data rows

    def test_deviation_single_row(self, capsys):
        code, out, _ = run(capsys, "deviation", "--stat", "rec", "--n", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,1.0,")

    def test_temme_compare(self, capsys):
        code, out, _ = run(capsys, "temme", "--n", "20", "--m", "10", "--compare")
        assert code == 0
        header, row = out.splitlines()
        assert header == "n,m,u1,t1,B,g,log_estimate,log_exact,rel_error"
        fields = row.split(",")
        assert len(fields) == 9
        assert float(fields[-1]) < 0.01

    def test_temme_without_compare_leaves_blanks(self, capsys):
        code, out, _ = run(capsys, "temme", "--n", "20", "--m", "10")
        assert code == 0
        assert out.splitlines()[1].endswith(",,")

    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core", "--max-n", "4")
        assert code == 0
        assert all(line.startswith(("PASS", "SKIP")) for line in out.splitlines())

    def test_verify_all_suites_at_n8(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "8")
        assert code == 0
        lines = out.splitlines()
        assert sum(line.startswith("PASS") for line in lines) >= 25
        assert not any(line.startswith("FAIL") for line in lines)
        # pinned here, not in GOLDEN, since verify has no --output; the
        # digest is the one perfbench/golden.json holds for this call
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9305bbd9d61daf2ac4878c071cabc7b84ec6a7fbf2a5d7e6e3860c766472494a"
        )

    def test_suite_choices_are_verify_suites(self):
        # the parser states them itself, so that building it loads no verify
        from recstats import cli, verify

        assert cli._SUITES == verify.SUITES
        parser = cli.build_parser()
        for suite in verify.SUITES:
            assert parser.parse_args(["verify", "--suite", suite]).suite == suite

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "curve", "--stat", "rec", "--n", "17")
        _, second, _ = run(capsys, "curve", "--stat", "rec", "--n", "17")
        assert first == second


def records_line(entries) -> str:
    """The ``records`` output by way of ``json.dumps``, positions from running maxima."""
    positions = [i for i in range(1, len(entries) + 1) if entries[i - 1] == max(entries[:i])]
    return json.dumps({"positions": positions, "rec": len(positions),
                       "srec": sum(positions)}) + "\n"


class TestRecordsLine:
    # the command writes its JSON line by hand; json.dumps is the oracle

    def test_every_permutation_up_to_n6(self, capsys):
        parser = build_parser()
        for n in range(1, 7):
            for entries in itertools.permutations(range(1, n + 1)):
                args = parser.parse_args(["records", "--perm", ",".join(map(str, entries))])
                assert args.handler(args) == 0
                assert capsys.readouterr().out == records_line(entries)

    def test_sampled_n2000(self, capsys):
        entries = perm.sample_uniform(2000, 7).entries
        code, out, err = run(capsys, "records", "--perm", ",".join(map(str, entries)))
        assert (code, err) == (0, "")
        assert out == records_line(entries)


class TestErrors:
    def test_infeasible_k_is_usage_error(self, capsys):
        code, out, err = run(capsys, "min-product", "--n", "5", "--k", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "\n" not in err.strip()

    @pytest.mark.parametrize("argv", [("--n", "1800", "--k", "5"), ("--n", "501", "--k", "3")])
    def test_min_product_n_cap(self, capsys, argv):
        code, out, err = run(capsys, "min-product", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(EXTREMAL_LIMIT) in err
        assert "Traceback" not in err and "\n" not in err.strip()

    def test_min_product_cap_admits_limit(self, capsys):
        _check_feasible(EXTREMAL_LIMIT, 3)
        # every k at the cap costs O(n) big-integer products
        n = str(EXTREMAL_LIMIT)
        code, out, err = run(capsys, "min-product", "--n", n, "--k", "500")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["n,k,m,witness", "500,500,499,1+499"]
        code, out, err = run(capsys, "min-product", "--n", n, "--k", "1000")
        assert (code, err) == (0, "")
        row_n, row_k, m_text, witness_text = out.splitlines()[1].split(",")
        assert (row_n, row_k) == (n, "1000")
        witness = [int(v) for v in witness_text.split("+")]
        assert witness[0] == 1 and witness[-1] <= EXTREMAL_LIMIT
        assert all(a < b for a, b in zip(witness, witness[1:]))
        assert sum(witness) == 1000 and math.prod(witness) == int(m_text)
        bounds = gamma_bounds(EXTREMAL_LIMIT, 1000)
        assert bounds.log_lower - 1e-9 <= big_ln(int(m_text)) <= bounds.log_upper + 1e-9

    def test_bad_permutation(self, capsys):
        code, _, err = run(capsys, "records", "--perm", "1,1,2")
        assert code == 2 and "error:" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rec-table", "--n", "3", "--frobnicate"])
        assert info.value.code == 2

    def test_out_of_range_n(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["rec-table", "--n", "0"])
        assert info.value.code == 2

    def test_non_integer_count(self):
        # every flag typed with _positive_int, read off the parser
        commands = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
        flags = [(name, flag) for name, sub in commands.choices.items() for action in sub._actions
                 if action.type is _positive_int for flag in action.option_strings]
        assert {flag for _, flag in flags} == {
            "--n", "--k", "--m", "--count", "--points", "--n-min", "--n-max", "--max-n"}
        for name, flag in flags:
            for text in ("abc", "2.5", ""):
                code, out, err = run_captured([name, flag, text])
                assert (code, out) == (2, ""), (name, flag, text)
                assert err.endswith(f"error: argument {flag}: must be a positive integer\n")
                assert "_positive_int" not in err

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        from recstats import verify

        def broken():
            raise verify.CheckFailure("synthetic")

        monkeypatch.setitem(
            verify._CHECKS, "core", [("synthetic failure", broken, lambda max_n: ())]
        )
        code, out, _ = run(capsys, "verify", "--suite", "core")
        assert code == 1
        assert "FAIL" in out


def run_captured(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its streams captured; argparse's exit becomes the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Small inputs only (n <= 12): in range, out of range, infeasible and malformed.
SMALL = st.integers(-1, 12).map(str)
STAT = st.sampled_from(["rec", "srec", "max"])
MARK = st.tuples(st.integers(0, 13), st.sampled_from(["Y", "N", "y", "X"])).map(
    lambda item: f"{item[0]}:{item[1]}"
)
MARKS = st.one_of(
    st.lists(MARK, max_size=3).map(",".join),
    st.sampled_from(["2", "2:Y:3", ":", "a:Y", "2:Y,2:N", ","]),
)
PERM = st.one_of(
    st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.lists(st.integers(-1, 8), max_size=8),
).map(lambda values: ",".join(map(str, values)))
MALFORMED = st.tuples(
    st.sampled_from([["rec-table"], ["sample", "--seed", "1"], ["pattern"],
                     ["curve", "--stat", "rec"], ["min-product", "--k", "3"],
                     ["temme", "--m", "2"]]),
    st.sampled_from(["", "x", "2.5", "1e3", "0x5"]),
).map(lambda a: [*a[0], "--n", a[1]])


def _optional(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


CLI_CALLS = st.one_of(
    st.tuples(st.sampled_from(["rec-table", "srec-table"]), SMALL,
              st.sampled_from(["csv", "json", "xml"])).map(
        lambda a: [a[0], "--n", a[1], "--format", a[2]]),
    PERM.map(lambda perm: ["records", "--perm", perm]),
    st.tuples(SMALL, st.integers(-3, 3), _optional("--count", SMALL)).map(
        lambda a: ["sample", "--n", a[0], "--seed", str(a[1]), *a[2]]),
    st.tuples(SMALL, MARKS).map(lambda a: ["pattern", "--n", a[0], "--marks", a[1]]),
    st.tuples(SMALL, st.integers(-1, 80).map(str)).map(
        lambda a: ["min-product", "--n", a[0], "--k", a[1]]),
    st.tuples(STAT, SMALL, _optional("--points", SMALL)).map(
        lambda a: ["curve", "--stat", a[0], "--n", a[1], *a[2]]),
    st.tuples(STAT, SMALL, SMALL).map(
        lambda a: ["tau", "--stat", a[0], "--n-min", a[1], "--n-max", a[2]]),
    st.tuples(STAT, SMALL).map(lambda a: ["deviation", "--stat", a[0], "--n", a[1]]),
    st.tuples(SMALL, st.integers(-1, 13).map(str), st.booleans()).map(
        lambda a: ["temme", "--n", a[0], "--m", a[1], *(["--compare"] if a[2] else [])]),
    MALFORMED,
)


def assert_clean_exit(argv: list[str]) -> None:
    code, _, err = run_captured(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    else:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


class TestSmallInputsEndCleanly:
    # every call exits 0 or 2; an exit 2 prints one error line and no traceback

    @settings(max_examples=300)
    @given(CLI_CALLS)
    def test_subcommands(self, argv):
        assert_clean_exit(argv)

    @settings(max_examples=6)
    @given(st.sampled_from(["core", "bounds", "scaling", "temme", "all", "none"]),
           st.one_of(SMALL, st.just("x")))
    def test_verify(self, suite, max_n):
        assert_clean_exit(["verify", "--suite", suite, "--max-n", max_n])


class TestOutputFiles:
    def test_atomic_write_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        code, out, _ = run(capsys, "rec-table", "--n", "4", "--output", str(path))
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, "rec-table", "--n", "4")
        assert path.read_text() == direct
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".recstats-")]

    def test_failed_write_leaves_no_partial_file(self, capsys, monkeypatch, tmp_path):
        missing = tmp_path / "absent" / "row.csv"
        code, _, err = run(capsys, "rec-table", "--n", "4", "--output", str(missing))
        assert code == 1
        assert err.startswith("error:")
        assert not missing.exists()

        def no_temp(*args, **kwargs):
            raise AssertionError("a directory target got a temp file")

        monkeypatch.setattr(tempfile, "mkstemp", no_temp)
        folder = tmp_path / "folder"
        folder.mkdir()
        code, _, dir_err = run(capsys, "rec-table", "--n", "4", "--output", str(folder))
        assert code == 1
        assert folder.is_dir() and not list(folder.iterdir())
        for path, text in ((missing, err), (folder, dir_err)):
            assert text.startswith("error:") and text.count("\n") == 1, text
            assert repr(str(path)) in text
            assert ".recstats-" not in text
        assert not list(tmp_path.rglob(".recstats-*"))

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_open_gives(self, capsys, tmp_path, umask):
        path, plain = tmp_path / "row.csv", tmp_path / "plain.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run(capsys, "rec-table", "--n", "5", "--output", str(path))
            plain.open("w").close()
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        path.write_bytes(b"old bytes\n")
        path.chmod(0o640)
        old = os.umask(0o077)
        try:
            code, _, _ = run(capsys, "rec-table", "--n", "5", "--output", str(path))
        finally:
            os.umask(old)
        assert code == 0 and path.read_text().startswith("n,k,count\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @pytest.mark.parametrize("link,target,existing", [
        ("link.csv", "target.csv", True),
        ("links/link.csv", "../data/target.csv", True),
        ("link.csv", "missing.csv", False),
    ], ids=["relative", "other-directory", "dangling"])
    def test_output_through_a_symlink_writes_its_target(self, capsys, tmp_path, link, target,
                                                        existing):
        # as ``> link.csv`` would: the target gets the bytes, the link stays
        link_path = tmp_path / link
        target_path = link_path.parent / target
        link_path.parent.mkdir(exist_ok=True)
        target_path.parent.mkdir(exist_ok=True)
        if existing:
            target_path.write_bytes(b"old\n")
            target_path.chmod(0o640)
        link_path.symlink_to(target)
        code, _, _ = run(capsys, "rec-table", "--n", "3", "--output", str(link_path))
        _, direct, _ = run(capsys, "rec-table", "--n", "3")
        assert code == 0
        assert link_path.is_symlink() and os.readlink(link_path) == target
        assert target_path.read_text() == direct
        if existing:
            assert stat.S_IMODE(target_path.stat().st_mode) == 0o640
        assert not list(tmp_path.rglob(".recstats-*"))

    def test_srec_csv_covers_range(self, capsys, tmp_path):
        path = tmp_path / "srec.csv"
        code, _, _ = run(capsys, "srec-table", "--n", "9", "--output", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + srec_max(9)

    @pytest.mark.parametrize("error,code", [(ValueError("synthetic"), 2), (OSError("synthetic"), 1)])
    def test_failure_mid_stream_keeps_old_file(self, capsys, monkeypatch, tmp_path, error, code):
        path = tmp_path / "row.csv"
        path.write_bytes(b"old bytes\n")

        def failing_csv(table):
            yield "n,k,count\n"
            yield f"{table.n},1,{table.coeffs[1]}\n"
            raise error

        monkeypatch.setattr(tables, "table_csv", failing_csv)
        got, out, err = run(capsys, "rec-table", "--n", "4", "--output", str(path))
        assert (got, out, err) == (code, "", "error: synthetic\n")
        assert path.read_bytes() == b"old bytes\n"
        assert os.listdir(tmp_path) == ["row.csv"]


def assert_closed_pipe_error(code: int, err: str) -> None:
    assert code == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


class TestStreaming:
    # stdout block-buffered, as it is by default for a pipe
    ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": str(ROOT / "src")}

    def test_reader_closes_the_pipe_mid_table(self):
        # the row is about 1 MB, far more than a pipe buffers, so the
        # writer is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "recstats.cli", "srec-table", "--n", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.ENV,
        )
        try:
            assert proc.stdout.readline() == b"n,k,count\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert_closed_pipe_error(code, err)

    def test_reader_gone_before_the_first_write(self):
        # a small document sits in the stdout buffer until main flushes
        # it; the flush at interpreter exit must not fail a second time
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "recstats.cli", "rec-table", "--n", "5"],
                stdout=write_end, stderr=subprocess.PIPE, env=self.ENV, timeout=60,
            )
        finally:
            os.close(write_end)
        assert_closed_pipe_error(proc.returncode, proc.stderr.decode())

    def test_export_memory_tracks_the_row_not_the_document(self, monkeypatch, tmp_path):
        # what the export allocates on top of the finished row peaks below
        # the size of the file; building the whole document costs several
        # times the file
        build = tables.srec_table
        row_bytes = []

        def built_then_measured(n):
            table = build(n)
            row_bytes.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return table

        monkeypatch.setattr(tables, "srec_table", built_then_measured)
        path = tmp_path / "srec.csv"
        tracemalloc.start()
        try:
            code = main(["srec-table", "--n", "110", "--output", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - row_bytes[0] < path.stat().st_size

    # n = 4 decodes each code once from count = 24 on, n = 9 never does
    @pytest.mark.parametrize("n", [4, 9])
    @pytest.mark.parametrize("count", [1, tables.EXPORT_BLOCK - 1, tables.EXPORT_BLOCK,
                                       tables.EXPORT_BLOCK + 1, 2 * tables.EXPORT_BLOCK + 1])
    def test_sample_blocks_join_to_the_whole_draw(self, capsys, tmp_path, n, count):
        expected = "".join(f"{p}\n" for p in perm.sample_uniform_many(n, 3, count))
        argv = ["sample", "--n", str(n), "--seed", "3", "--count", str(count)]
        assert run(capsys, *argv) == (0, expected, "")
        path = tmp_path / "draws.txt"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == expected.encode()


# SHA-256 of each call's output, recorded before the table exports were
# streamed; stdout and --output must both give these bytes
GOLDEN = [
    ("rec-table --n 1 --format csv", "b6aac3b086917bb535849e74aa47be355b2a1e123a41aea56fdd8d9704c101c0"),
    ("rec-table --n 2 --format csv", "3e9da9acd5d1a645e09c2bc2ad755b172a2df5ce876dc6767579e4209ea2ccff"),
    ("rec-table --n 3 --format csv", "ea6afc19be54f4077562c439635d1bcdc51a4f82b0dda3d71158821365871e58"),
    ("rec-table --n 30 --format csv", "118de9808ef1161b00efe733b45ee25c3eebdd5b8c0d22dd03d30c457c019677"),
    ("rec-table --n 1 --format json", "53916795a3711698baa039e64b2a542f1a5244b74e3d76c5dc22ceaf1baad1fd"),
    ("rec-table --n 2 --format json", "0c0c4f6f0e4e859c53fff2e3656582d47af0dcdd15ffe800d86b97a24e427a26"),
    ("rec-table --n 3 --format json", "7821587bd16af03b4b3d8917f8a923e1942ace95f97cebd74831b2292ec5f269"),
    ("rec-table --n 30 --format json", "d5cf0bd4a65bb63cb9c0222497589698fd9c3ff7721f21804a92b3cecb2b4054"),
    ("srec-table --n 1 --format csv", "b6aac3b086917bb535849e74aa47be355b2a1e123a41aea56fdd8d9704c101c0"),
    ("srec-table --n 2 --format csv", "1d3fb62168705c5985d0f6a94a785bd639e3dd8a2e8662028feba0718f9cb734"),
    ("srec-table --n 3 --format csv", "b12940529f16d8a5e9933922449b7c867ccf3f3a660d4cc91a502980e477f258"),
    ("srec-table --n 30 --format csv", "f8294efc52846d6afd3bd2618a7184235c15d6e32a9e870267cadb57c891e5ea"),
    ("srec-table --n 1 --format json", "7a29234c1db414a8c17e6f8f70a41b0513036a806934f9166c4315bdf0bad565"),
    ("srec-table --n 2 --format json", "0b38d87bf7afb799b229a1da3ac81c07510d97115f67c35585c4e2ac6e775630"),
    ("srec-table --n 3 --format json", "63d02a6178412538d2cc5b5625d8c21f555790138e37a779f7c2101d4f2ed54c"),
    ("srec-table --n 30 --format json", "92b1aef8de1391b50bde5a45844d1e2c3cfb4606d81c388d991e4f4ce573a77a"),
    ("records --perm 4,7,5,1,6,8,2,3", "7243f4365985c290e680cebe00ed1e308cdf2fa527d0e4f24b2a8da991c79a01"),
    ("sample --n 9 --seed 5 --count 4", "0b0705521982554995146f76f1bd4bdcec56a87c8b40d2a42e69479bf5acfe8f"),
    ("tau --stat srec --n-min 2 --n-max 12", "f97f9bd4aa94fb731e1d7b6b518bea5749faa99ca5d85e97bd3dd1ea4313610a"),
    ("tau --stat rec --n-min 2 --n-max 12", "000c8fd4734fa93713819b8d6025458e3f11e78439509b3ec2bc6c27cf546a5f"),
    ("curve --stat srec --n 12 --points 5", "f6f2aadd137c87eabd980ab925f27eaf12b329b7dffe2ab947ca4acdfbbde242"),
    ("curve --stat rec --n 9", "b009b1237f53f96fa53a68f0495fd439977b52af6540b584fb8c3ab8123acbad"),
    ("curve --stat srec --n 2", "5885734be281c9ca9a4acaf83820ce7d1e0826feca81b9c16e0391da0194fa1d"),
    ("curve --stat srec --n 7", "a2139474d353344183b9fe38f5f9dce8b1e61c5a90fc814ea7d8f86651fd78e1"),
    ("deviation --stat srec --n 10", "5d1d719121aaf178c5a31d619373d8fa3439ef04e2903e97e243e79bd11b6867"),
    ("deviation --stat rec --n 10", "d7c504fac0b9ea759a9f9d2179f11d8c375ca78db58e818daff6f2741f2b3ccb"),
    ("min-product --n 8 --k 20", "c688ea10b39a400009f46a821d8dff117a5903615f0d85a7c61d3a7a0f6061b0"),
    ("min-product --n 8 --k 6", "164f023c95f4e04540c74e6bd279e502cd42f9941a0a21f4b14ece92fef543f0"),
    ("temme --n 20 --m 10 --compare", "017dcf996fd97d5caf9bdf159d48fb143f2bbbc4baef192acf897978d33fb71b"),
    ("pattern --n 9 --marks 3:Y,7:N", "deb06017aca190593507507dabb8ca60cafce258058a8968212a6176a6019abe"),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv,digest", GOLDEN)
    def test_stdout(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", GOLDEN)
    def test_output_file(self, capsys, tmp_path, argv, digest):
        path = tmp_path / "out"
        code, out, err = run(capsys, *argv.split(), "--output", str(path))
        assert (code, out, err) == (0, "", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestLongDecimals:
    # c(1600, 1) = 1599! and the denominator 1700! both exceed 4300 digits

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rec_table_n1600(self, capsys, fmt):
        before = digit_limit()
        code, out, err = run(capsys, "rec-table", "--n", "1600", "--format", fmt)
        assert (code, err) == (0, "")
        assert digit_limit() == before
        if fmt == "csv":
            lines = out.splitlines()
            assert lines[0] == "n,k,count"
            counts = {}
            for line in lines[1:]:
                n, k, count = line.split(",")
                assert n == "1600"
                counts[int(k)] = count
        else:
            doc = json.loads(out)
            assert (doc["n"], doc["kind"]) == (1600, "rec")
            counts = {int(k): count for k, count in doc["coeffs"].items()}
        assert list(counts) == list(range(1, 1601))
        assert counts[1600] == "1"
        with unlimited_digits():
            assert counts[1] == str(math.factorial(1599))
            assert sum(int(count) for count in counts.values()) == math.factorial(1600)

    def test_all_records_pattern_n1700(self, capsys):
        marks = ",".join(f"{j}:Y" for j in range(2, 1701))
        before = digit_limit()
        code, out, err = run(capsys, "pattern", "--n", "1700", "--marks", marks)
        assert (code, err) == (0, "")
        assert digit_limit() == before
        with unlimited_digits():
            assert out == f"1/{math.factorial(1700)}\n"
