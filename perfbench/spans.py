"""
In-process traced replay of a workload through ``recstats.cli.main``.

The layers are the package modules.  :func:`traced` wraps each layer's
public functions from outside the package and rebinds every name that
refers to them in every ``recstats`` module, because callers bind some
of them by name (``scaling`` imports ``iter_srec_rows`` from
``tables``).  Each wrapped call records a :class:`Span`; a row
generator records one span per ``next()``, so the time spent producing
a row counts as ``tables`` time even when a ``scaling`` function drives
the generator.  Spans stay in memory until the run ends.

Per-layer metrics take self time: a span's duration minus the
durations of its child spans.  Spans under ``verify.run_suite`` count
only towards ``verify.run_suite_s``, which is run_suite's whole
duration.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from workloads import Call, srec_top

ROOT_SPAN = "cli.main"
VERIFY_SPAN = "verify.run_suite"


@dataclass
class Span:
    id: int
    parent: int | None
    op: int  # index of the CLI call in the replay
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(next(self._ids), stack[-1].id if stack else None, self.op, name,
                 time.perf_counter())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)


def _segments(stat: str, n: int) -> int:
    """Constant segments the sup scan visits for one row."""
    return n + 1 if stat == "rec" else max(2, srec_top(n) - 2)


# (module, function) -> counts recorded from the bound arguments and the result
_COUNTERS: dict[tuple[str, str], Callable[[dict, object], dict[str, float]]] = {
    ("tables", "iter_rec_rows"): lambda a, r: {"rows": 1, "coeffs": len(r[1])},
    ("tables", "iter_srec_rows"): lambda a, r: {"rows": 1, "coeffs": len(r[1])},
    ("tables", "rec_table"): lambda a, r: {},
    ("tables", "srec_table"): lambda a, r: {},
    ("tables", "table_csv"): lambda a, r: {"bytes": len(r)},
    ("tables", "table_json"): lambda a, r: {"bytes": len(r)},
    ("scaling", "tau_series"): lambda a, r: {
        "segments": sum(_segments(a["stat"], n) for n in range(a["n_min"], a["n_max"] + 1))},
    ("scaling", "sup_deviation"): lambda a, r: {"segments": _segments(a["stat"], a["n"])},
    ("scaling", "curve_samples"): lambda a, r: {},
    ("extremal", "min_product"): lambda a, r: {
        "dp_cells": (a["n"] - 1) * (srec_top(a["n"]) - 1)},
    ("temme", "temme_estimate"): lambda a, r: {"estimates": 1},
    ("probabilities", "pattern_probability"): lambda a, r: {},
    ("perm", "sample_uniform_many"): lambda a, r: {"perms": a["count"]},
    ("verify", "run_suite"): lambda a, r: {},
}


def _wrap(tracer: Tracer, name: str, fn, counter):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    with tracer.span(name) as s:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        s.counts = counter({}, item)
                    yield item
            finally:
                inner.close()
        return generator

    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            s.counts = counter(bound.arguments, result)
        return result
    return call


def load_package(src: Path):
    """Import ``recstats.cli`` from ``src``, and only from there."""
    sys.path.insert(0, str(src))
    from recstats import cli

    if Path(cli.__file__).resolve().parent != (src / "recstats").resolve():
        raise ImportError(f"imported recstats from {cli.__file__}, not {src}")
    return cli


def _package_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "recstats" or n.startswith("recstats.")]


def clear_caches() -> None:
    """Drop every memoized result, so each replayed call rebuilds as a fresh process does."""
    for module in _package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer functions in every ``recstats`` namespace that binds them."""
    modules = _package_modules()
    undo = []
    for (module_name, fn_name), counter in _COUNTERS.items():
        original = getattr(sys.modules[f"recstats.{module_name}"], fn_name)
        wrapper = _wrap(tracer, f"{module_name}.{fn_name}", original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


@dataclass
class OpResult:
    wall: float
    returncode: int


def replay(cli, calls: list[Call], outputs: list[Path],
           tracer: Tracer | None = None) -> list[OpResult]:
    """Run each call's argv through ``recstats.cli.main`` in this process.

    stdout goes to the call's output path, unless the call writes its
    own file there.
    """
    results = []
    for op, (call, out) in enumerate(zip(calls, outputs)):
        clear_caches()
        sink = io.StringIO() if call.writes_file else out.open("w")
        with sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            if tracer is None:
                returncode = _main(cli, call.argv_for(out))
            else:
                tracer.op = op
                with tracer.span(ROOT_SPAN):
                    returncode = _main(cli, call.argv_for(out))
        results.append(OpResult(time.perf_counter() - start, returncode))
    clear_caches()
    return results


def _main(cli, argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code if isinstance(exc.code, int) else 2


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the durations of its children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def outside_verify(spans: list[Span]) -> list[Span]:
    """Spans with no ``verify.run_suite`` ancestor (run_suite itself included)."""
    by_id = {s.id: s for s in spans}
    kept = []
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != VERIFY_SPAN:
            parent = by_id.get(parent.parent)
        if parent is None:
            kept.append(s)
    return kept


def _ratio(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], setup_s: float, peaks: dict[str, float]) -> dict:
    """Per-layer metrics of one traced replay, in the units BENCHMARK.json names.

    Times are self times summed over the layer's spans outside verify,
    except ``verify.run_suite_s``, which is run_suite's whole duration.
    ``scaling.segments`` counts the constant segments the sup scans
    visit, and ``extremal.dp_cells`` is (n-1)(n(n+1)/2-1) per
    ``min_product`` call.  ``cli.self_s`` is the self time of every
    ``cli.main`` span plus one ``setup_s`` per call, standing in for the
    interpreter start and import that an in-process replay does not
    pay.  While ``tau_series`` runs its sup scans in a thread pool, rows
    are built in the calling thread, so their wait for the interpreter
    lock counts as ``tables`` time.
    """
    own = self_times(spans)
    kept = outside_verify(spans)

    def seconds(*names: str) -> float:
        return sum(own[s.id] for s in kept if s.name in names)

    def duration(name: str) -> float:
        return sum(s.end - s.start for s in kept if s.name == name)

    def count(key: str, *names: str) -> float:
        return sum(s.counts.get(key, 0) for s in kept if s.name in names)

    rows = ("tables.iter_rec_rows", "tables.iter_srec_rows", "tables.rec_table",
            "tables.srec_table")
    exports = ("tables.table_csv", "tables.table_json")
    scans = ("scaling.tau_series", "scaling.sup_deviation")
    calls = sum(1 for s in spans if s.name == ROOT_SPAN)
    values = {
        "tables.rows_s": seconds(*rows),
        "tables.rows": count("rows", *rows),
        "tables.coeffs": count("coeffs", *rows),
        "tables.export_s": seconds(*exports),
        "tables.export_mb": count("bytes", *exports) / 1e6,
        "scaling.tau_self_s": seconds("scaling.tau_series"),
        "scaling.deviation_s": seconds("scaling.sup_deviation"),
        "scaling.curve_s": seconds("scaling.curve_samples"),
        "scaling.segments": count("segments", *scans),
        "scaling.peak_mb": peaks.get("scaling", 0.0),
        "extremal.min_product_s": seconds("extremal.min_product"),
        "extremal.dp_cells": count("dp_cells", "extremal.min_product"),
        "extremal.peak_mb": peaks.get("extremal", 0.0),
        "temme.estimate_s": seconds("temme.temme_estimate"),
        "temme.estimates": count("estimates", "temme.temme_estimate"),
        "probabilities.pattern_s": seconds("probabilities.pattern_probability"),
        "verify.run_suite_s": duration(VERIFY_SPAN),
        "perm.sample_s": seconds("perm.sample_uniform_many"),
        "cli.self_s": seconds(ROOT_SPAN) + calls * setup_s,
    }
    values["tables.coeffs_per_s"] = _ratio(values["tables.coeffs"], values["tables.rows_s"])
    values["scaling.segments_per_s"] = _ratio(values["scaling.segments"], seconds(*scans))
    values["extremal.dp_cells_per_s"] = _ratio(values["extremal.dp_cells"],
                                               values["extremal.min_product_s"])
    values["perm.perms_per_s"] = _ratio(count("perms", "perm.sample_uniform_many"),
                                        values["perm.sample_s"])
    return values


def layer_peaks(spans: list[Span], call_peaks_mb: list[float]) -> dict[str, float]:
    """Per layer, the largest peak among the calls that ran it outside verify."""
    peaks: dict[str, float] = {}
    for s in outside_verify(spans):
        layer = s.name.split(".")[0]
        peaks[layer] = max(peaks.get(layer, 0.0), call_peaks_mb[s.op])
    return peaks
