"""
Command-line front end.

Every subcommand is deterministic given its flags, writes either to
stdout or atomically to ``--output`` (temp file plus rename, so a
failed run leaves no partial file and its error names the path given;
the file gets the permission bits a plain ``open()`` would give it, and
a directory is refused before anything is written), and exits 0 on
success, 2 on a usage error, 1 on a verification failure or I/O
problem.  Building the parser loads no layer but ``tables`` (see the
package docstring); each handler loads the layers it calls.

The table exports and ``sample`` stream: rows and draws go out a block
at a time as they are formatted, so peak memory is about one count row
plus its tuple of pointers, or one block of draws, not the whole
document.  Stdout is therefore written progressively, and a failure
mid-run can leave part of the document there; only ``--output`` is
atomic.  A reader that closes the pipe early (say ``| head``) ends the
run with one ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import itertools
import os
import stat
import sys
from typing import Iterable

from . import extremal, perm, probabilities, scaling, tables, temme, verify
from .tables import REC, SREC

# verify.SUITES, stated here so that building the parser does not load
# verify; tests/test_cli.py pins the two to each other
_SUITES = ("core", "bounds", "scaling", "temme", "all")


def _open_mode(path: str) -> int:
    """The permission bits ``open(path, "w")`` would leave on ``path``.

    An existing file keeps its own; a new one gets 0o666 less the umask.
    """
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write(chunks: Iterable[str], path: str | None) -> None:
    """Write the text chunks, in order, to stdout or atomically to ``path``."""
    if path is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        # surface a closed pipe here, inside main, not at interpreter exit
        sys.stdout.flush()
        return
    import errno
    import tempfile  # only this path needs them

    # through a symlink, as ``> path`` would: the target gets the bytes and
    # keeps its mode, the link stays a link, and the temp file sits beside
    # the target so that the rename stays on one file system
    target = os.path.realpath(path)
    tmp_path = None
    try:
        if os.path.isdir(target):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".recstats-")
        with os.fdopen(fd, "w") as handle:
            # mkstemp creates the file 0o600, whatever the umask
            os.chmod(tmp_path, _open_mode(target))
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, target)
    except BaseException as exc:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename is not None:
            # name the path the user gave, never the temp file or the link's target
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: the message of a count below 1
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _parse_marks(text: str) -> dict[int, str]:
    marks: dict[int, str] = {}
    if not text:
        return marks
    for item in text.split(","):
        try:
            pos_text, mark = item.split(":")
            pos = int(pos_text)
        except ValueError:
            raise ValueError(f"bad mark {item!r}; expected POSITION:Y or POSITION:N") from None
        if pos in marks:
            raise ValueError(f"position {pos} marked twice")
        marks[pos] = mark.strip().upper()
    return marks


def _cmd_table(args: argparse.Namespace) -> int:
    table = tables.rec_table(args.n) if args.kind == REC else tables.srec_table(args.n)
    if args.format == "csv":
        _write(tables.table_csv(table), args.output)
    else:
        _write(itertools.chain(tables.table_json(table), ("\n",)), args.output)
    return 0


def _cmd_records(args: argparse.Namespace) -> int:
    profile = perm.records(perm.Permutation.from_string(args.perm))
    # what json.dumps gives for the dict of the three fields, as tables.table_json
    positions = ", ".join(map(str, profile.positions))
    document = f'{{"positions": [{positions}], "rec": {profile.rec}, "srec": {profile.srec}}}\n'
    _write((document,), args.output)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    draws = perm.iter_uniform(args.n, args.seed, args.count)
    # one write per EXPORT_BLOCK draws, as the table exports: few writes,
    # and only one block of draws and its text alive at a time
    blocks = iter(
        lambda: "".join(f"{p}\n" for p in itertools.islice(draws, tables.EXPORT_BLOCK)), ""
    )
    _write(blocks, args.output)
    return 0


def _cmd_pattern(args: argparse.Namespace) -> int:
    spec = probabilities.PatternSpec(args.n, _parse_marks(args.marks))
    probability = probabilities.format_fraction(probabilities.pattern_probability(spec))
    _write((probability + "\n",), args.output)
    return 0


def _cmd_min_product(args: argparse.Namespace) -> int:
    _write((extremal.extremal_csv([extremal.min_product(args.n, args.k)]),), args.output)
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    curve = scaling.curve_samples(args.n, args.stat, args.points)
    _write((scaling.curve_csv(curve),), args.output)
    return 0


def _cmd_tau(args: argparse.Namespace) -> int:
    reports = scaling.tau_series(args.stat, args.n_min, args.n_max)
    _write((scaling.tau_csv(reports),), args.output)
    return 0


def _cmd_deviation(args: argparse.Namespace) -> int:
    _write((scaling.tau_csv([scaling.sup_deviation(args.n, args.stat)]),), args.output)
    return 0


def _cmd_temme(args: argparse.Namespace) -> int:
    estimate = temme.temme_estimate(args.n, args.m)
    log_exact = None
    if args.compare:
        log_exact = tables.big_ln(tables.rec_count(args.n, args.m))
    _write((temme.estimate_csv([(estimate, log_exact)]),), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return 0 if verify.run_suite(args.suite, args.max_n) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recstats",
        description="Exact and asymptotic record statistics of permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", "-o", help="write to this path (atomic); default stdout")
        return p

    for kind, label in ((REC, "number-of-records"), (SREC, "sum-of-record-positions")):
        p = add(f"{kind}-table", _cmd_table, f"exact {label} counts for one n")
        p.set_defaults(kind=kind)
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("records", _cmd_records, "record profile of one permutation")
    p.add_argument("--perm", required=True, help='comma-separated values, e.g. "4,7,5,1,6,8,2,3"')

    p = add("sample", _cmd_sample, "uniform random permutations, reproducible by seed")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=_positive_int, default=1)

    p = add("pattern", _cmd_pattern, "exact probability of a record/non-record pattern")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--marks", default="", help='e.g. "2:Y,5:N"; empty means unconstrained')

    p = add("min-product", _cmd_min_product, "minimum product over admissible position tuples")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)

    p = add("curve", _cmd_curve, "scaled log-count curve with its limit shape")
    p.add_argument("--stat", choices=(REC, SREC), required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--points", type=_positive_int, default=None,
                   help="evenly spaced sample count; default: every breakpoint")

    p = add("tau", _cmd_tau, "sup-deviation series tau(n) over a range of n")
    p.add_argument("--stat", choices=(REC, SREC), required=True)
    p.add_argument("--n-min", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_positive_int, required=True)

    p = add("deviation", _cmd_deviation, "exact sup deviation for one n")
    p.add_argument("--stat", choices=(REC, SREC), required=True)
    p.add_argument("--n", type=_positive_int, required=True)

    p = add("temme", _cmd_temme, "saddle-point estimate of c(n, m)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--compare", action="store_true",
                   help="also emit the exact log count and relative error")

    p = sub.add_parser("verify", help="run invariant suites; exit 0 iff all pass")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", choices=_SUITES, default="all")
    p.add_argument("--max-n", type=_positive_int, default=8, dest="max_n")

    return parser


def _silence_stdout() -> None:
    """Point fd 1 at the null device, so the interpreter's final flush of
    output the closed pipe never took does not fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # stdout is not a file here
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Exact counts and denominators outgrow CPython's int->str digit
    # limit (4300 by default); lift it for this call only.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _silence_stdout()
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
